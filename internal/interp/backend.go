package interp

import (
	"comp/internal/minic"
)

// Direction of a transfer relative to the device.
type Direction int

// Directions.
const (
	DirIn  Direction = iota // host -> device
	DirOut                  // device -> host
	DirNone
)

// TransferSpec is one resolved pragma item: sizes evaluated, buffer
// lifetime decisions made.
type TransferSpec struct {
	// Item is the pragma item. An engine may pass only its names (Name,
	// Into): the section expressions are already evaluated into the
	// fields below.
	Item minic.TransferItem
	Dir  Direction
	// Dest is the device buffer name.
	Dest string
	// Elems is the element count (0 for scalars), Bytes the wire size.
	Elems int64
	Bytes int64
	// AllocBytes is the device buffer size this item implies (set for any
	// item that allocates, including nocopy items that move no data).
	AllocBytes int64
	// DestOffsetBytes is the resolved byte offset of the transfer within
	// the device buffer (for h2d writes; 0 otherwise).
	DestOffsetBytes int64
	// Alloc / Free are the resolved lifetime decisions for the device
	// buffer (LEO defaults: allocate before, free after, each offload).
	Alloc bool
	Free  bool
	// Scalar marks a by-value scalar copy.
	Scalar bool
}

// OffloadOp describes one executed offload region: its transfers, its
// synchronization tags, and the work measured while the region's body ran
// on the device.
type OffloadOp struct {
	// Pragma identifies the offload site: the runtime keys persistent
	// kernels by it and labels spans with its position. An engine may pass
	// a per-site copy without the transfer clauses Specs already resolve.
	Pragma  *minic.Pragma
	Specs   []TransferSpec
	Wait    string
	Signal  string
	Persist bool
	Work    Work
	// DevTouched lists the device buffers (and the byte ranges within
	// them) the kernel body actually accessed, recorded while the
	// interpreter executed it. The runtime uses this to detect pipelining
	// races: a DMA overwriting a range while a kernel using it is still
	// in flight.
	DevTouched []BufferRange
}

// BufferRange is a touched byte range within a device buffer.
type BufferRange struct {
	Name      string
	StartByte int64
	EndByte   int64 // exclusive
}

// InBytes sums host-to-device payload.
func (op *OffloadOp) InBytes() int64 {
	var n int64
	for _, s := range op.Specs {
		if s.Dir == DirIn {
			n += s.Bytes
		}
	}
	return n
}

// OutBytes sums device-to-host payload.
func (op *OffloadOp) OutBytes() int64 {
	var n int64
	for _, s := range op.Specs {
		if s.Dir == DirOut {
			n += s.Bytes
		}
	}
	return n
}

// TransferOp describes one offload_transfer pragma execution.
type TransferOp struct {
	Pragma *minic.Pragma
	Specs  []TransferSpec
	Wait   string
	Signal string
}

// Backend receives the interpreter's machine-visible operations in program
// order. Implementations map them to time (internal/runtime) or just count
// them (test fakes).
type Backend interface {
	// HostCompute reports host work accumulated since the previous
	// operation.
	HostCompute(w Work)
	// Offload reports a synchronous offload region (allocate, move inputs,
	// run kernel, move outputs, free). An error aborts the program; the
	// canonical one is device OOM. A backend is free to recover instead of
	// erroring — retry transient failures, or run the region some other
	// way (internal/runtime degrades to a staging buffer and then to the
	// host) — as long as any signal tag the program expects still fires.
	Offload(op *OffloadOp) error
	// Transfer reports an asynchronous offload_transfer.
	Transfer(op *TransferOp) error
	// OffloadWait reports an offload_wait barrier on a signal tag.
	OffloadWait(tag string)
}

// NullBackend discards all operations; useful for pure value execution.
type NullBackend struct{}

// HostCompute implements Backend.
func (NullBackend) HostCompute(Work) {}

// Offload implements Backend.
func (NullBackend) Offload(*OffloadOp) error { return nil }

// Transfer implements Backend.
func (NullBackend) Transfer(*TransferOp) error { return nil }

// OffloadWait implements Backend.
func (NullBackend) OffloadWait(string) {}
