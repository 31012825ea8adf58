// Package unroll holds the bounded model every Buffy layer analyzes: the
// buffer capacities, arrivals per step, packet classes and sizes and list
// capacity of an unrolled program, the default integer width, and the one
// rule that fills in unset bounds. The compiler (ir), the static analyzer
// (sema), the concrete interpreter (interp) and the Dafny generator all
// resolve their bounds here, so they agree on the model by construction:
// the static tier's soundness and counterexample replay depend on it.
//
// The package imports nothing, so it can sit below every layer.
package unroll

// DefaultWidth is the default two's-complement integer width of the
// solver encoding (bitblast.DefaultWidth), the static analyzer's interval
// domain and the concrete interpreter's wrap-around arithmetic.
const DefaultWidth = 12

// Bounds are the finite sizes of the bounded model. A zero field takes
// its default in Resolve.
type Bounds struct {
	// BufferCap is each buffer's capacity (default 8).
	BufferCap int
	// OutBufferCap is each output buffer's capacity (default
	// T·ArrivalsPerStep·inputs + BufferCap, so accumulated output is
	// never dropped).
	OutBufferCap int
	// ArrivalsPerStep bounds symbolic arrivals per input buffer per step
	// (default 1).
	ArrivalsPerStep int
	// NumClasses bounds packet field values (default: the number of input
	// buffer instances, at least 2).
	NumClasses int
	// MaxBytes bounds a packet's byte size (default 1: unit packets).
	MaxBytes int
	// ListCap bounds the capacity of Buffy list variables (default: the
	// number of input buffer instances, at least 4).
	ListCap int
}

// Resolve returns b with every unset (non-positive) bound replaced by its
// default for a horizon of T steps over numInputs input buffer instances.
func (b Bounds) Resolve(T, numInputs int) Bounds {
	if b.BufferCap <= 0 {
		b.BufferCap = 8
	}
	if b.ArrivalsPerStep <= 0 {
		b.ArrivalsPerStep = 1
	}
	if b.NumClasses <= 0 {
		b.NumClasses = max(numInputs, 2)
	}
	if b.MaxBytes <= 0 {
		b.MaxBytes = 1
	}
	if b.ListCap <= 0 {
		b.ListCap = max(numInputs, 4)
	}
	if b.OutBufferCap <= 0 {
		b.OutBufferCap = max(T*b.ArrivalsPerStep*numInputs+b.BufferCap, b.BufferCap)
	}
	return b
}
