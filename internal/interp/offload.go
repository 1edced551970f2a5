package interp

import (
	"sort"

	"comp/internal/analysis"
	"comp/internal/minic"
)

// loopIndexName extracts the induction variable name syntactically.
func loopIndexName(fs *minic.ForStmt) string {
	switch init := fs.Init.(type) {
	case *minic.AssignStmt:
		if id, ok := init.LHS.(*minic.Ident); ok {
			return id.Name
		}
	case *minic.DeclStmt:
		return init.Decl.Name
	}
	return ""
}

func (c *compiler) compileFor(fs *minic.ForStmt) (stmtFn, error) {
	var offload, omp *minic.Pragma
	for _, p := range fs.Pragmas {
		switch p.Kind {
		case minic.PragmaOffload:
			offload = p
		case minic.PragmaOmpParallelFor:
			omp = p
		}
	}

	c.push()
	defer c.pop()

	var initFn stmtFn
	var err error
	if fs.Init != nil {
		initFn, err = c.compileStmt(fs.Init)
		if err != nil {
			return nil, err
		}
	}
	var cond cx
	hasCond := fs.Cond != nil
	if hasCond {
		cond, err = c.compileExpr(fs.Cond)
		if err != nil {
			return nil, err
		}
	}
	var postFn stmtFn
	if fs.Post != nil {
		postFn, err = c.compileStmt(fs.Post)
		if err != nil {
			return nil, err
		}
	}

	ivar := loopIndexName(fs)
	c.loopVars = append(c.loopVars, ivar)
	body, err := c.compileBlock(fs.Body)
	c.loopVars = c.loopVars[:len(c.loopVars)-1]
	if err != nil {
		return nil, err
	}

	// Static vectorizability for parallel loops.
	vec := false
	if omp != nil {
		if info, aerr := analysis.Analyze(fs, c.prog.file); aerr == nil {
			vec = info.Vectorizable()
		}
	}

	pos := fs.Pos()
	condW, condB, condIrr := cond.w, cond.b, cond.irr
	rawLoop := func(env *Env) ctl {
		if initFn != nil {
			if cc := initFn(env); cc == ctlReturn {
				return cc
			}
		}
		for iter := int64(0); ; iter++ {
			if iter > maxLoopIters {
				throw(rtErrf(pos, "for loop exceeded %d iterations", int64(maxLoopIters)))
			}
			env.spendIteration(pos)
			if hasCond {
				env.addWork(condW, condB, condIrr)
				if cond.f(env) == 0 {
					return ctlNormal
				}
			}
			switch body(env) {
			case ctlBreak:
				return ctlNormal
			case ctlReturn:
				return ctlReturn
			}
			if postFn != nil {
				postFn(env)
			}
		}
	}

	// countingLoop additionally reports the iteration count.
	countingLoop := func(env *Env) (ctl, int64) {
		var iters int64
		if initFn != nil {
			if cc := initFn(env); cc == ctlReturn {
				return cc, iters
			}
		}
		for {
			env.spendIteration(pos)
			if hasCond {
				env.addWork(condW, condB, condIrr)
				if cond.f(env) == 0 {
					return ctlNormal, iters
				}
			}
			iters++
			switch body(env) {
			case ctlBreak:
				return ctlNormal, iters
			case ctlReturn:
				return ctlReturn, iters
			}
			if postFn != nil {
				postFn(env)
			}
		}
	}

	parallelLoop := rawLoop
	if omp != nil {
		parallelLoop = func(env *Env) ctl {
			if env.parallel {
				// Nested parallelism is disabled (OpenMP default): the
				// inner loop just runs in the enclosing parallel context.
				return rawLoop(env)
			}
			env.parallel = true
			env.vec = vec
			cc, iters := countingLoop(env)
			env.parallel = false
			env.vec = false
			env.work.ParIters += iters
			return cc
		}
	}

	if offload == nil {
		return parallelLoop, nil
	}

	specs, err := c.compileSpecs(offload)
	if err != nil {
		return nil, err
	}
	return func(env *Env) ctl {
		if env.onDevice {
			throw(rtErrf(pos, "nested offload"))
		}
		env.flushHost()
		resolved := evalSpecs(env, specs, pos)
		applyIn(env, specs, resolved, pos)
		kernelWork := Work{}
		savedWork := env.work
		env.work = &kernelWork
		env.onDevice = true
		env.devTouched = map[string]*elemRange{}
		cc := parallelLoop(env)
		var touched []BufferRange
		for name, rg := range env.devTouched {
			elemBytes := int64(8)
			if a := env.p.devArr[name]; a != nil {
				elemBytes = a.ElemBytes
			}
			touched = append(touched, BufferRange{
				Name:      name,
				StartByte: rg.lo * elemBytes,
				EndByte:   (rg.hi + 1) * elemBytes,
			})
		}
		sort.Slice(touched, func(i, j int) bool { return touched[i].Name < touched[j].Name })
		env.devTouched = nil
		env.onDevice = false
		env.work = savedWork
		op := &OffloadOp{
			Pragma:     offload,
			Specs:      resolved,
			Wait:       offload.Wait,
			Signal:     offload.Signal,
			Persist:    offload.Persist,
			Work:       kernelWork,
			DevTouched: touched,
		}
		if err := env.backend.Offload(op); err != nil {
			throw(rtErrf(pos, "offload failed: %v", err))
		}
		applyOut(env, specs, resolved, pos)
		applyFrees(env, resolved)
		return cc
	}, nil
}

func (c *compiler) compilePragmaStmt(x *minic.PragmaStmt) (stmtFn, error) {
	p := x.P
	pos := x.Pos()
	switch p.Kind {
	case minic.PragmaOffloadWait:
		tag := p.Wait
		return func(env *Env) ctl {
			env.flushHost()
			env.backend.OffloadWait(tag)
			return ctlNormal
		}, nil
	case minic.PragmaOffloadTransfer:
		specs, err := c.compileSpecs(p)
		if err != nil {
			return nil, err
		}
		return func(env *Env) ctl {
			env.flushHost()
			resolved := evalSpecs(env, specs, pos)
			applyIn(env, specs, resolved, pos)
			op := &TransferOp{Pragma: p, Specs: resolved, Wait: p.Wait, Signal: p.Signal}
			if err := env.backend.Transfer(op); err != nil {
				throw(rtErrf(pos, "offload_transfer failed: %v", err))
			}
			applyOut(env, specs, resolved, pos)
			applyFrees(env, resolved)
			return ctlNormal
		}, nil
	}
	return nil, c.errf(pos, "pragma %s not valid as a statement", p.Kind)
}

func (e *Env) flushHost() {
	if !e.work.Zero() {
		e.backend.HostCompute(*e.work)
		*e.work = Work{}
	}
}

// cspec is a compiled transfer item.
type cspec struct {
	item      minic.TransferItem
	dir       Direction
	scalar    bool
	elem      minic.Type
	elemBytes int64
	start     *cx
	length    *cx
	intoStart *cx
	allocIf   *cx
	freeIf    *cx
	// Host-side resolver for the host end of the copy (the Name side for
	// in/nocopy, the Into side for out). Nil for scalars and for device-
	// only names.
	hostName string
	devName  string
	// defaults when alloc_if/free_if are absent.
	defAlloc bool
	defFree  bool
}

// compileSpecs compiles every item of an offload/offload_transfer pragma.
func (c *compiler) compileSpecs(p *minic.Pragma) ([]*cspec, error) {
	var out []*cspec
	defAlloc, defFree := true, true
	if p.Kind == minic.PragmaOffloadTransfer {
		// Asynchronous transfers default to persistent buffers: the data
		// must survive until a later offload consumes it.
		defFree = false
	}
	add := func(items []minic.TransferItem, dir Direction) error {
		for _, it := range items {
			sp, err := c.compileSpec(it, dir, defAlloc, defFree)
			if err != nil {
				return err
			}
			out = append(out, sp)
		}
		return nil
	}
	if err := add(p.In, DirIn); err != nil {
		return nil, err
	}
	// inout items become one in-spec plus one out-spec; the in side owns
	// allocation, the out side owns freeing.
	for _, it := range p.InOut {
		inSpec, err := c.compileSpec(it, DirIn, defAlloc, false)
		if err != nil {
			return nil, err
		}
		inSpec.defFree = false
		outSpec, err := c.compileSpec(it, DirOut, false, defFree)
		if err != nil {
			return nil, err
		}
		outSpec.defAlloc = false
		out = append(out, inSpec, outSpec)
	}
	if err := add(p.Out, DirOut); err != nil {
		return nil, err
	}
	if err := add(p.NoCopy, DirNone); err != nil {
		return nil, err
	}
	return out, nil
}

func (c *compiler) compileSpec(it minic.TransferItem, dir Direction, defAlloc, defFree bool) (*cspec, error) {
	bnd, ok := c.lookup(it.Name)
	if !ok {
		return nil, c.errf(minic.Pos{}, "pragma item %s undefined", it.Name)
	}
	sp := &cspec{item: it, dir: dir, defAlloc: defAlloc, defFree: defFree}
	if !isRefType(bnd.typ) || it.Length == nil {
		// Scalar copied by value.
		sp.scalar = true
		sp.elem = bnd.typ
		sp.elemBytes = bnd.typ.Size()
		sp.hostName = it.Name
		sp.devName = it.Dest()
		return sp, nil
	}
	sp.elem = minic.ElemOf(bnd.typ)
	sp.elemBytes = sp.elem.Size()
	switch dir {
	case DirOut:
		// Name is the device side; Into (or Name) is the host side.
		sp.devName = it.Name
		sp.hostName = it.Dest()
	default:
		sp.hostName = it.Name
		sp.devName = it.Dest()
	}
	compileOpt := func(e minic.Expr) (*cx, error) {
		if e == nil {
			return nil, nil
		}
		v, err := c.compileExpr(e)
		if err != nil {
			return nil, err
		}
		return &v, nil
	}
	var err error
	if sp.start, err = compileOpt(it.Start); err != nil {
		return nil, err
	}
	if sp.length, err = compileOpt(it.Length); err != nil {
		return nil, err
	}
	if sp.intoStart, err = compileOpt(it.IntoStart); err != nil {
		return nil, err
	}
	if sp.allocIf, err = compileOpt(it.AllocIf); err != nil {
		return nil, err
	}
	if sp.freeIf, err = compileOpt(it.FreeIf); err != nil {
		return nil, err
	}
	return sp, nil
}

// evalSpecs resolves compiled specs against the current host state.
func evalSpecs(env *Env, specs []*cspec, pos minic.Pos) []TransferSpec {
	out := make([]TransferSpec, len(specs))
	for i, sp := range specs {
		ts := TransferSpec{Item: sp.item, Dir: sp.dir, Dest: sp.devName, Scalar: sp.scalar}
		if sp.scalar {
			ts.Bytes = sp.elemBytes
			ts.Alloc = false
			ts.Free = false
			out[i] = ts
			continue
		}
		n := int64(0)
		if sp.length != nil {
			n = int64(sp.length.f(env))
			if n < 0 {
				throw(rtErrf(pos, "negative transfer length %d for %s", n, sp.item.Name))
			}
		}
		ts.Elems = n
		ts.AllocBytes = n * sp.elemBytes
		if sp.dir != DirNone {
			ts.Bytes = n * sp.elemBytes
		}
		if sp.dir == DirIn {
			// Resolve the destination byte offset for race detection.
			switch {
			case sp.intoStart != nil:
				ts.DestOffsetBytes = int64(sp.intoStart.f(env)) * sp.elemBytes
			case sp.item.Into == "" && sp.start != nil:
				ts.DestOffsetBytes = int64(sp.start.f(env)) * sp.elemBytes
			}
		}
		ts.Alloc = sp.defAlloc
		if sp.allocIf != nil {
			ts.Alloc = sp.allocIf.f(env) != 0
		}
		ts.Free = sp.defFree
		if sp.freeIf != nil {
			ts.Free = sp.freeIf.f(env) != 0
		}
		out[i] = ts
	}
	return out
}

// hostArrayFor resolves the host storage of a named array.
func hostArrayFor(env *Env, name string, pos minic.Pos) *Array {
	g := env.p.lookup(name)
	if g == nil || !g.arrayly {
		throw(rtErrf(pos, "pragma item %s is not a global array", name))
	}
	if g.arr == nil {
		throw(rtErrf(pos, "array %s has no storage", name))
	}
	return g.arr
}

// applyIn performs device allocation and host->device value copies.
func applyIn(env *Env, specs []*cspec, resolved []TransferSpec, pos minic.Pos) {
	for i, sp := range specs {
		ts := resolved[i]
		if sp.scalar {
			if sp.dir == DirIn || sp.dir == DirNone {
				g := env.p.lookup(sp.hostName)
				if g == nil {
					throw(rtErrf(pos, "scalar %s is not global; only globals can be transferred", sp.hostName))
				}
				cell := env.p.devCell[sp.devName]
				if cell == nil {
					cell = &Cell{}
					env.p.devCell[sp.devName] = cell
				}
				cell.V = g.cell.V
			}
			continue
		}
		if ts.Alloc {
			g := env.p.lookup(sp.devName)
			if g == nil || !g.arrayly {
				throw(rtErrf(pos, "device buffer %s must be a declared array or pointer", sp.devName))
			}
			env.p.AllocDevBuf(GlobalHandle{g: g}, ts.Elems)
		}
		if sp.dir != DirIn {
			continue
		}
		dst := env.p.devArr[sp.devName]
		if dst == nil {
			throw(rtErrf(pos, "device buffer %s used before allocation (alloc_if(0) without a prior alloc?)", sp.devName))
		}
		src := hostArrayFor(env, sp.hostName, pos)
		srcOff := int64(0)
		if sp.start != nil {
			srcOff = int64(sp.start.f(env))
		}
		dstOff := int64(0)
		if sp.intoStart != nil {
			dstOff = int64(sp.intoStart.f(env))
		} else if sp.item.Into == "" {
			// LEO: a section without into() occupies the same offsets in
			// the device copy of the array.
			dstOff = srcOff
		}
		copySection(src, srcOff, dst, dstOff, ts.Elems, pos)
	}
}

// applyOut performs device->host value copies.
func applyOut(env *Env, specs []*cspec, resolved []TransferSpec, pos minic.Pos) {
	for i, sp := range specs {
		ts := resolved[i]
		if sp.dir != DirOut {
			continue
		}
		if sp.scalar {
			if cell := env.p.devCell[sp.devName]; cell != nil {
				g := env.p.lookup(sp.hostName)
				if g == nil {
					throw(rtErrf(pos, "scalar %s is not global", sp.hostName))
				}
				g.cell.V = cell.V
			}
			continue
		}
		src := env.p.devArr[sp.devName]
		if src == nil {
			throw(rtErrf(pos, "device buffer %s not present for out transfer", sp.devName))
		}
		dst := hostArrayFor(env, sp.hostName, pos)
		srcOff := int64(0)
		if sp.start != nil {
			srcOff = int64(sp.start.f(env))
		}
		dstOff := int64(0)
		if sp.intoStart != nil {
			dstOff = int64(sp.intoStart.f(env))
		} else if sp.item.Into == "" {
			dstOff = srcOff
		}
		copySection(src, srcOff, dst, dstOff, ts.Elems, pos)
	}
}

// applyFrees drops device buffers whose specs request freeing.
func applyFrees(env *Env, resolved []TransferSpec) {
	for _, ts := range resolved {
		if ts.Free && !ts.Scalar {
			env.p.FreeDevBuf(ts.Dest)
		}
	}
}

func copySection(src *Array, srcOff int64, dst *Array, dstOff, elems int64, pos minic.Pos) {
	if src.Fields != dst.Fields {
		throw(rtErrf(pos, "transfer between %s and %s with different element layouts", src.Name, dst.Name))
	}
	f := int64(src.Fields)
	if srcOff < 0 || srcOff+elems > int64(src.Len()) {
		throw(rtErrf(pos, "transfer section [%d,%d) out of range for %s (len %d)", srcOff, srcOff+elems, src.Name, src.Len()))
	}
	if dstOff < 0 || dstOff+elems > int64(dst.Len()) {
		throw(rtErrf(pos, "transfer section [%d,%d) out of range for %s (len %d)", dstOff, dstOff+elems, dst.Name, dst.Len()))
	}
	copy(dst.Data[dstOff*f:(dstOff+elems)*f], src.Data[srcOff*f:(srcOff+elems)*f])
}
