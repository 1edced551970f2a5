package vm

import (
	"sort"

	"comp/internal/interp"
	"comp/internal/minic"
)

// offEnter performs the offload region preamble: flush pending host work,
// resolve the transfer specs, allocate device buffers and copy inputs in,
// then swap work accounting to a fresh kernel profile.
func (m *machine) offEnter(ch *Chunk, d *OffloadDesc, f []float64, r []*interp.Array) {
	if m.onDevice {
		m.throwf(d.Pos, "nested offload")
	}
	m.flush()
	resolved := m.evalSpecs(d.Chunk, d.Specs, d.Pos, f, r)
	m.applyIn(d.Chunk, d.Specs, resolved, d.Pos, f, r)
	reg := &region{kind: rOff, desc: d, resolved: resolved, savedWork: m.work}
	m.regions = append(m.regions, reg)
	m.work = &reg.kernelWork
	m.onDevice = true
	m.tracking = true
	m.resetDevCaches()
	m.refreshBucket()
}

// offExit reports the region to the backend, copies outputs back, and
// frees device buffers per the resolved lifetime decisions.
func (m *machine) offExit(f []float64, r []*interp.Array) {
	reg := m.regions[len(m.regions)-1]
	m.regions = m.regions[:len(m.regions)-1]
	d := reg.desc

	var touched []interp.BufferRange
	for _, t := range m.touchSlots {
		if t.arr == nil {
			continue
		}
		elemBytes := int64(8)
		if a := m.p.DevBuf(t.arr.Name); a != nil {
			elemBytes = a.ElemBytes
		}
		touched = append(touched, interp.BufferRange{
			Name:      t.arr.Name,
			StartByte: t.lo * elemBytes,
			EndByte:   (t.hi + 1) * elemBytes,
		})
	}
	sort.Slice(touched, func(i, j int) bool { return touched[i].Name < touched[j].Name })
	m.tracking = false
	m.onDevice = false
	m.work = reg.savedWork
	m.refreshBucket()

	op := &interp.OffloadOp{
		Pragma:     d.Pragma,
		Specs:      reg.resolved,
		Wait:       d.Pragma.Wait,
		Signal:     d.Pragma.Signal,
		Persist:    d.Pragma.Persist,
		Work:       reg.kernelWork,
		DevTouched: touched,
	}
	if err := m.backend.Offload(op); err != nil {
		m.throwf(d.Pos, "offload failed: %v", err)
	}
	m.applyOut(d.Chunk, d.Specs, reg.resolved, d.Pos, f, r)
	m.applyFrees(reg.resolved)
}

// transfer executes one offload_transfer pragma.
func (m *machine) transfer(d *TransferDesc, f []float64, r []*interp.Array) {
	m.flush()
	resolved := m.evalSpecs(d.Chunk, d.Specs, d.Pos, f, r)
	m.applyIn(d.Chunk, d.Specs, resolved, d.Pos, f, r)
	op := &interp.TransferOp{Pragma: d.Pragma, Specs: resolved, Wait: d.Pragma.Wait, Signal: d.Pragma.Signal}
	if err := m.backend.Transfer(op); err != nil {
		m.throwf(d.Pos, "offload_transfer failed: %v", err)
	}
	m.applyOut(d.Chunk, d.Specs, resolved, d.Pos, f, r)
	m.applyFrees(resolved)
	if m.onDevice {
		// The transfer may have (re)allocated or freed device buffers and
		// scalars; drop the region's cached resolutions.
		m.clearDevCaches()
	}
}

// evalSpecs resolves compiled specs against the current host state,
// mirroring the tree-walker's evalSpecs (including which clause
// expressions are evaluated, and how often).
func (m *machine) evalSpecs(ch *Chunk, specs []*VSpec, pos minic.Pos, f []float64, r []*interp.Array) []interp.TransferSpec {
	out := make([]interp.TransferSpec, len(specs))
	for i, sp := range specs {
		ts := interp.TransferSpec{Item: sp.Item, Dir: sp.Dir, Dest: sp.DevName, Scalar: sp.Scalar}
		if sp.Scalar {
			ts.Bytes = sp.ElemBytes
			ts.Alloc = false
			ts.Free = false
			out[i] = ts
			continue
		}
		n := int64(0)
		if sp.Length != nil {
			n = int64(m.evalBlock(ch, sp.Length, f, r))
			if n < 0 {
				m.throwf(pos, "negative transfer length %d for %s", n, sp.Item.Name)
			}
		}
		ts.Elems = n
		ts.AllocBytes = n * sp.ElemBytes
		if sp.Dir != interp.DirNone {
			ts.Bytes = n * sp.ElemBytes
		}
		if sp.Dir == interp.DirIn {
			switch {
			case sp.IntoStart != nil:
				ts.DestOffsetBytes = int64(m.evalBlock(ch, sp.IntoStart, f, r)) * sp.ElemBytes
			case sp.Item.Into == "" && sp.Start != nil:
				ts.DestOffsetBytes = int64(m.evalBlock(ch, sp.Start, f, r)) * sp.ElemBytes
			}
		}
		ts.Alloc = sp.DefAlloc
		if sp.AllocIf != nil {
			ts.Alloc = m.evalBlock(ch, sp.AllocIf, f, r) != 0
		}
		ts.Free = sp.DefFree
		if sp.FreeIf != nil {
			ts.Free = m.evalBlock(ch, sp.FreeIf, f, r) != 0
		}
		out[i] = ts
	}
	return out
}

// global resolves a compiled Layout slot in the executing program; slot -1
// (not a global) yields an invalid handle.
func (m *machine) global(slot int32) interp.GlobalHandle {
	if slot < 0 {
		return interp.GlobalHandle{}
	}
	return m.p.GlobalAt(int(slot))
}

// hostArrayFor resolves the host storage of a named array.
func (m *machine) hostArrayFor(h interp.GlobalHandle, name string, pos minic.Pos) *interp.Array {
	if !h.Valid() || !h.IsArray() {
		m.throwf(pos, "pragma item %s is not a global array", name)
	}
	a := h.Arr()
	if a == nil {
		m.throwf(pos, "array %s has no storage", name)
	}
	return a
}

// applyIn performs device allocation and host->device value copies.
func (m *machine) applyIn(ch *Chunk, specs []*VSpec, resolved []interp.TransferSpec, pos minic.Pos, f []float64, r []*interp.Array) {
	for i, sp := range specs {
		ts := resolved[i]
		if sp.Scalar {
			if sp.Dir == interp.DirIn || sp.Dir == interp.DirNone {
				h := m.global(sp.HostG)
				if !h.Valid() {
					m.throwf(pos, "scalar %s is not global; only globals can be transferred", sp.HostName)
				}
				m.p.EnsureDevScalar(sp.DevName).V = h.Cell().V
			}
			continue
		}
		if ts.Alloc {
			h := m.global(sp.DevG)
			if !h.Valid() || !h.IsArray() {
				m.throwf(pos, "device buffer %s must be a declared array or pointer", sp.DevName)
			}
			m.p.AllocDevBuf(h, ts.Elems)
		}
		if sp.Dir != interp.DirIn {
			continue
		}
		dst := m.p.DevBuf(sp.DevName)
		if dst == nil {
			m.throwf(pos, "device buffer %s used before allocation (alloc_if(0) without a prior alloc?)", sp.DevName)
		}
		src := m.hostArrayFor(m.global(sp.HostG), sp.HostName, pos)
		srcOff := int64(0)
		if sp.Start != nil {
			srcOff = int64(m.evalBlock(ch, sp.Start, f, r))
		}
		dstOff := int64(0)
		if sp.IntoStart != nil {
			dstOff = int64(m.evalBlock(ch, sp.IntoStart, f, r))
		} else if sp.Item.Into == "" {
			// LEO: a section without into() occupies the same offsets in
			// the device copy of the array.
			dstOff = srcOff
		}
		m.copySection(src, srcOff, dst, dstOff, ts.Elems, pos)
	}
}

// applyOut performs device->host value copies.
func (m *machine) applyOut(ch *Chunk, specs []*VSpec, resolved []interp.TransferSpec, pos minic.Pos, f []float64, r []*interp.Array) {
	for i, sp := range specs {
		ts := resolved[i]
		if sp.Dir != interp.DirOut {
			continue
		}
		if sp.Scalar {
			if cell := m.p.DevScalar(sp.DevName); cell != nil {
				h := m.global(sp.HostG)
				if !h.Valid() {
					m.throwf(pos, "scalar %s is not global", sp.HostName)
				}
				h.Cell().V = cell.V
			}
			continue
		}
		src := m.p.DevBuf(sp.DevName)
		if src == nil {
			m.throwf(pos, "device buffer %s not present for out transfer", sp.DevName)
		}
		dst := m.hostArrayFor(m.global(sp.HostG), sp.HostName, pos)
		srcOff := int64(0)
		if sp.Start != nil {
			srcOff = int64(m.evalBlock(ch, sp.Start, f, r))
		}
		dstOff := int64(0)
		if sp.IntoStart != nil {
			dstOff = int64(m.evalBlock(ch, sp.IntoStart, f, r))
		} else if sp.Item.Into == "" {
			dstOff = srcOff
		}
		m.copySection(src, srcOff, dst, dstOff, ts.Elems, pos)
	}
}

// applyFrees drops device buffers whose specs request freeing.
func (m *machine) applyFrees(resolved []interp.TransferSpec) {
	for _, ts := range resolved {
		if ts.Free && !ts.Scalar {
			m.p.FreeDevBuf(ts.Dest)
		}
	}
}

func (m *machine) copySection(src *interp.Array, srcOff int64, dst *interp.Array, dstOff, elems int64, pos minic.Pos) {
	if src.Fields != dst.Fields {
		m.throwf(pos, "transfer between %s and %s with different element layouts", src.Name, dst.Name)
	}
	fl := int64(src.Fields)
	if srcOff < 0 || srcOff+elems > int64(src.Len()) {
		m.throwf(pos, "transfer section [%d,%d) out of range for %s (len %d)", srcOff, srcOff+elems, src.Name, src.Len())
	}
	if dstOff < 0 || dstOff+elems > int64(dst.Len()) {
		m.throwf(pos, "transfer section [%d,%d) out of range for %s (len %d)", dstOff, dstOff+elems, dst.Name, dst.Len())
	}
	copy(dst.Data[dstOff*fl:(dstOff+elems)*fl], src.Data[srcOff*fl:(srcOff+elems)*fl])
}
