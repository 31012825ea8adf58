package unroll

import "testing"

func TestResolve(t *testing.T) {
	cases := []struct {
		name         string
		in           Bounds
		T, numInputs int
		want         Bounds
	}{
		{
			name: "zero takes defaults", T: 4, numInputs: 3,
			want: Bounds{BufferCap: 8, OutBufferCap: 4*1*3 + 8, ArrivalsPerStep: 1, NumClasses: 3, MaxBytes: 1, ListCap: 4},
		},
		{
			name: "negative takes defaults", T: 1, numInputs: 2,
			in:   Bounds{BufferCap: -1, OutBufferCap: -1, ArrivalsPerStep: -1, NumClasses: -1, MaxBytes: -1, ListCap: -1},
			want: Bounds{BufferCap: 8, OutBufferCap: 1*1*2 + 8, ArrivalsPerStep: 1, NumClasses: 2, MaxBytes: 1, ListCap: 4},
		},
		{
			name: "explicit values kept", T: 9, numInputs: 5,
			in:   Bounds{BufferCap: 3, OutBufferCap: 7, ArrivalsPerStep: 2, NumClasses: 6, MaxBytes: 4, ListCap: 2},
			want: Bounds{BufferCap: 3, OutBufferCap: 7, ArrivalsPerStep: 2, NumClasses: 6, MaxBytes: 4, ListCap: 2},
		},
		{
			name: "floors at one input", T: 2, numInputs: 1,
			want: Bounds{BufferCap: 8, OutBufferCap: 2*1*1 + 8, ArrivalsPerStep: 1, NumClasses: 2, MaxBytes: 1, ListCap: 4},
		},
		{
			name: "inputs above the floors", T: 2, numInputs: 6,
			want: Bounds{BufferCap: 8, OutBufferCap: 2*1*6 + 8, ArrivalsPerStep: 1, NumClasses: 6, MaxBytes: 1, ListCap: 6},
		},
		{
			name: "output cap uses explicit cap and arrivals", T: 3, numInputs: 2,
			in:   Bounds{BufferCap: 5, ArrivalsPerStep: 2},
			want: Bounds{BufferCap: 5, OutBufferCap: 3*2*2 + 5, ArrivalsPerStep: 2, NumClasses: 2, MaxBytes: 1, ListCap: 4},
		},
		{
			name: "output cap clamped to cap", T: 0, numInputs: 0,
			in:   Bounds{BufferCap: 5},
			want: Bounds{BufferCap: 5, OutBufferCap: 5, ArrivalsPerStep: 1, NumClasses: 2, MaxBytes: 1, ListCap: 4},
		},
		{
			name: "output cap clamped on a negative product", T: 2, numInputs: -3,
			in:   Bounds{BufferCap: 5},
			want: Bounds{BufferCap: 5, OutBufferCap: 5, ArrivalsPerStep: 1, NumClasses: 2, MaxBytes: 1, ListCap: 4},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := c.in.Resolve(c.T, c.numInputs); got != c.want {
				t.Errorf("Resolve(%d, %d) of %+v = %+v, want %+v", c.T, c.numInputs, c.in, got, c.want)
			}
		})
	}
}

// Resolving twice changes nothing: a resolved record has no unset bound.
func TestResolveIdempotent(t *testing.T) {
	b := Bounds{ArrivalsPerStep: 2}.Resolve(4, 3)
	if again := b.Resolve(9, 7); again != b {
		t.Errorf("Resolve of a resolved record = %+v, want %+v", again, b)
	}
}
