package vm

import (
	"comp/internal/interp"
	"comp/internal/minic"
)

// miniBlock compiles one optional clause expression into a standalone
// instruction block. The block shares the enclosing chunk's constant pool
// and descriptor tables (and, at runtime, its frame), so the offload
// handlers can evaluate it on demand — and, like the tree-walker, more
// than once.
func (c *comp) miniBlock(e minic.Expr) ([]Instr, error) {
	if e == nil {
		return nil, nil
	}
	saved := c.code
	c.code = nil
	_, err := c.expr(e)
	blk := c.code
	c.code = saved
	if err != nil {
		return nil, err
	}
	return exact(blk), nil
}

// site returns the pragma an offload or transfer descriptor hands the
// backend: the site's position, target and tags, without the transfer
// clauses its compiled specs replace, so a cached module keeps no clause
// expression trees alive. One copy per source pragma keeps the identity
// the runtime keys persistent kernels by.
func (c *comp) site(p *minic.Pragma) *minic.Pragma {
	s, ok := c.sites[p]
	if !ok {
		cp := *p
		cp.In, cp.Out, cp.InOut, cp.NoCopy = nil, nil, nil, nil
		s = &cp
		c.sites[p] = s
	}
	return s
}

// compileSpecs compiles every item of an offload/offload_transfer pragma,
// mirroring the tree-walker's compileSpecs: in, then inout (split into an
// in-spec owning allocation and an out-spec owning freeing), then out,
// then nocopy.
func (c *comp) compileSpecs(p *minic.Pragma) ([]*VSpec, error) {
	var out []*VSpec
	defAlloc, defFree := true, true
	if p.Kind == minic.PragmaOffloadTransfer {
		defFree = false
	}
	add := func(items []minic.TransferItem, dir interp.Direction) error {
		for _, it := range items {
			sp, err := c.compileSpec(it, dir, defAlloc, defFree)
			if err != nil {
				return err
			}
			out = append(out, sp)
		}
		return nil
	}
	if err := add(p.In, interp.DirIn); err != nil {
		return nil, err
	}
	for _, it := range p.InOut {
		inSpec, err := c.compileSpec(it, interp.DirIn, defAlloc, false)
		if err != nil {
			return nil, err
		}
		inSpec.DefFree = false
		outSpec, err := c.compileSpec(it, interp.DirOut, false, defFree)
		if err != nil {
			return nil, err
		}
		outSpec.DefAlloc = false
		out = append(out, inSpec, outSpec)
	}
	if err := add(p.Out, interp.DirOut); err != nil {
		return nil, err
	}
	if err := add(p.NoCopy, interp.DirNone); err != nil {
		return nil, err
	}
	return out, nil
}

func (c *comp) compileSpec(it minic.TransferItem, dir interp.Direction, defAlloc, defFree bool) (*VSpec, error) {
	bnd, ok := c.lookup(it.Name)
	if !ok {
		return nil, c.errf(minic.Pos{}, "pragma item %s undefined", it.Name)
	}
	sp := &VSpec{Item: minic.TransferItem{Name: it.Name, Into: it.Into}, Dir: dir, DefAlloc: defAlloc, DefFree: defFree}
	if !isRefType(bnd.typ) || it.Length == nil {
		// Scalar copied by value.
		sp.Scalar = true
		sp.ElemBytes = bnd.typ.Size()
		sp.HostName = it.Name
		sp.DevName = it.Dest()
		sp.HostG, sp.DevG = c.slot(sp.HostName), -1
		return sp, nil
	}
	sp.ElemBytes = minic.ElemOf(bnd.typ).Size()
	switch dir {
	case interp.DirOut:
		// Name is the device side; Into (or Name) is the host side.
		sp.DevName = it.Name
		sp.HostName = it.Dest()
	default:
		sp.HostName = it.Name
		sp.DevName = it.Dest()
	}
	sp.HostG, sp.DevG = c.slot(sp.HostName), c.slot(sp.DevName)
	var err error
	if sp.Start, err = c.miniBlock(it.Start); err != nil {
		return nil, err
	}
	if sp.Length, err = c.miniBlock(it.Length); err != nil {
		return nil, err
	}
	if sp.IntoStart, err = c.miniBlock(it.IntoStart); err != nil {
		return nil, err
	}
	if sp.AllocIf, err = c.miniBlock(it.AllocIf); err != nil {
		return nil, err
	}
	if sp.FreeIf, err = c.miniBlock(it.FreeIf); err != nil {
		return nil, err
	}
	return sp, nil
}
