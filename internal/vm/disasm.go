package vm

import (
	"fmt"
	"strconv"
	"strings"
)

// Disassemble renders a chunk's serializable projection — frame layout,
// parameters, constant pool, work table, and code — as text. Floats print
// as hexadecimal literals so Assemble recovers them bit-exactly. The
// descriptor tables (accesses, offload specs, printf sites...) hold AST
// references and are not part of the textual form; Assemble reconstructs
// everything Disassemble emits, and the round-trip property holds the pair
// to Disassemble(Assemble(text)) == text.
func Disassemble(ch *Chunk) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "chunk %s slots=%d refs=%d maxf=%d maxr=%d\n",
		ch.Name, ch.NumSlots, ch.RefSlots, ch.MaxF, ch.MaxR)
	for _, p := range ch.Params {
		kind := "num"
		if p.IsRef {
			kind = "ref"
		}
		fmt.Fprintf(&sb, "param %d %s\n", p.Slot, kind)
	}
	for i, c := range ch.Consts {
		fmt.Fprintf(&sb, "const %d %s\n", i, fmtF(c))
	}
	for i, w := range ch.Works {
		fmt.Fprintf(&sb, "work %d %s %s %s\n", i, fmtF(w.W), fmtF(w.B), fmtF(w.Irr))
	}
	for i, d := range ch.VecLoops {
		fmt.Fprintf(&sb, "vecloop %d idx=%d idxg=%d guard=%d par=%d le=%d iota=%d regs=%d per=%s,%s,%s\n",
			i, d.IdxSlot, d.IdxG, d.GuardSlot, b2i(d.Par), b2i(d.LE), d.IotaReg, d.NRegs,
			fmtF(d.PerIter.W), fmtF(d.PerIter.B), fmtF(d.PerIter.Irr))
		for _, in := range d.Upper {
			fmt.Fprintf(&sb, "vecupper %d %s %d %d\n", i, in.Op, in.A, in.B)
		}
		for _, im := range d.Imms {
			fmt.Fprintf(&sb, "vecimm %d %s %d %d\n", i, vimNames[im.Kind], im.A, im.Dst)
		}
		for _, s := range d.Sites {
			kind := "global"
			if s.Local {
				kind = "local"
			}
			fmt.Fprintf(&sb, "vecsite %d %s %d %d %d\n", i, kind, s.A, s.Stride, s.Off)
		}
		for _, in := range d.Prog {
			fmt.Fprintf(&sb, "veccol %d %s %d %d %d %d %d\n",
				i, colInfo[in.Kind].name, in.Dst, in.X, in.Y, in.Z, in.Site)
		}
	}
	for i, in := range ch.Code {
		fmt.Fprintf(&sb, "%4d: %s %d %d", i, in.Op, in.A, in.B)
		if in.W != 0 {
			// A branch carrying its block's charge: Works[W-1].
			fmt.Fprintf(&sb, " w=%d", in.W)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

func fmtF(v float64) string { return strconv.FormatFloat(v, 'x', -1, 64) }

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

var vimNames = map[int32]string{vimConst: "const", vimLocal: "local", vimGlobal: "global"}

var vimByName = map[string]int32{"const": vimConst, "local": vimLocal, "global": vimGlobal}

var colByName = func() map[string]int32 {
	m := make(map[string]int32, int(cColCount))
	for k := int32(0); k < cColCount; k++ {
		m[colInfo[k].name] = k
	}
	return m
}()

var opByName = func() map[string]Op {
	m := make(map[string]Op, int(opCount))
	for op, name := range opNames {
		if name != "" {
			m[name] = Op(op)
		}
	}
	return m
}()

// Assemble parses Disassemble's output back into a chunk. Only the
// serializable projection is rebuilt; descriptor tables come back empty.
func Assemble(text string) (*Chunk, error) {
	ch := &Chunk{}
	sawHeader := false
	for ln, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		switch {
		case fields[0] == "chunk":
			if len(fields) != 6 {
				return nil, fmt.Errorf("line %d: malformed chunk header", ln+1)
			}
			ch.Name = fields[1]
			for _, f := range fields[2:] {
				k, v, ok := strings.Cut(f, "=")
				if !ok {
					return nil, fmt.Errorf("line %d: malformed header field %q", ln+1, f)
				}
				n, err := strconv.Atoi(v)
				if err != nil {
					return nil, fmt.Errorf("line %d: %v", ln+1, err)
				}
				switch k {
				case "slots":
					ch.NumSlots = n
				case "refs":
					ch.RefSlots = n
				case "maxf":
					ch.MaxF = n
				case "maxr":
					ch.MaxR = n
				default:
					return nil, fmt.Errorf("line %d: unknown header field %q", ln+1, k)
				}
			}
			sawHeader = true
		case fields[0] == "param":
			if len(fields) != 3 || (fields[2] != "num" && fields[2] != "ref") {
				return nil, fmt.Errorf("line %d: malformed param", ln+1)
			}
			slot, err := strconv.Atoi(fields[1])
			if err != nil {
				return nil, fmt.Errorf("line %d: %v", ln+1, err)
			}
			ch.Params = append(ch.Params, ParamSlot{Slot: slot, IsRef: fields[2] == "ref"})
		case fields[0] == "const":
			if len(fields) != 3 {
				return nil, fmt.Errorf("line %d: malformed const", ln+1)
			}
			v, err := strconv.ParseFloat(fields[2], 64)
			if err != nil {
				return nil, fmt.Errorf("line %d: %v", ln+1, err)
			}
			ch.Consts = append(ch.Consts, v)
		case fields[0] == "work":
			if len(fields) != 5 {
				return nil, fmt.Errorf("line %d: malformed work", ln+1)
			}
			var tri [3]float64
			for i, f := range fields[2:5] {
				v, err := strconv.ParseFloat(f, 64)
				if err != nil {
					return nil, fmt.Errorf("line %d: %v", ln+1, err)
				}
				tri[i] = v
			}
			ch.Works = append(ch.Works, WorkTriple{W: tri[0], B: tri[1], Irr: tri[2]})
		case fields[0] == "vecloop":
			if len(fields) != 10 {
				return nil, fmt.Errorf("line %d: malformed vecloop", ln+1)
			}
			idx, err := strconv.Atoi(fields[1])
			if err != nil || idx != len(ch.VecLoops) {
				return nil, fmt.Errorf("line %d: vecloop index %q out of sequence (want %d)", ln+1, fields[1], len(ch.VecLoops))
			}
			d := &VecLoopDesc{}
			for _, f := range fields[2:] {
				k, v, ok := strings.Cut(f, "=")
				if !ok {
					return nil, fmt.Errorf("line %d: malformed vecloop field %q", ln+1, f)
				}
				if k == "per" {
					parts := strings.Split(v, ",")
					if len(parts) != 3 {
						return nil, fmt.Errorf("line %d: malformed vecloop per triple %q", ln+1, v)
					}
					var tri [3]float64
					for i, p := range parts {
						w, err := strconv.ParseFloat(p, 64)
						if err != nil {
							return nil, fmt.Errorf("line %d: %v", ln+1, err)
						}
						tri[i] = w
					}
					d.PerIter = WorkTriple{W: tri[0], B: tri[1], Irr: tri[2]}
					continue
				}
				n, err := strconv.ParseInt(v, 10, 32)
				if err != nil {
					return nil, fmt.Errorf("line %d: %v", ln+1, err)
				}
				switch k {
				case "idx":
					d.IdxSlot = int32(n)
				case "idxg":
					d.IdxG = int32(n)
				case "guard":
					d.GuardSlot = int32(n)
				case "par":
					d.Par = n != 0
				case "le":
					d.LE = n != 0
				case "iota":
					d.IotaReg = int32(n)
				case "regs":
					d.NRegs = int32(n)
				default:
					return nil, fmt.Errorf("line %d: unknown vecloop field %q", ln+1, k)
				}
			}
			ch.VecLoops = append(ch.VecLoops, d)
		case fields[0] == "vecupper":
			d, err := vecAt(ch, fields, 5, ln)
			if err != nil {
				return nil, err
			}
			op, ok := opByName[fields[2]]
			if !ok {
				return nil, fmt.Errorf("line %d: unknown opcode %q", ln+1, fields[2])
			}
			a, errA := strconv.ParseInt(fields[3], 10, 32)
			b, errB := strconv.ParseInt(fields[4], 10, 32)
			if errA != nil || errB != nil {
				return nil, fmt.Errorf("line %d: malformed vecupper operands", ln+1)
			}
			d.Upper = append(d.Upper, Instr{Op: op, A: int32(a), B: int32(b)})
		case fields[0] == "vecimm":
			d, err := vecAt(ch, fields, 5, ln)
			if err != nil {
				return nil, err
			}
			kind, ok := vimByName[fields[2]]
			if !ok {
				return nil, fmt.Errorf("line %d: unknown imm kind %q", ln+1, fields[2])
			}
			a, errA := strconv.ParseInt(fields[3], 10, 32)
			dst, errD := strconv.ParseInt(fields[4], 10, 32)
			if errA != nil || errD != nil {
				return nil, fmt.Errorf("line %d: malformed vecimm operands", ln+1)
			}
			d.Imms = append(d.Imms, VecImm{Kind: kind, A: int32(a), Dst: int32(dst)})
		case fields[0] == "vecsite":
			d, err := vecAt(ch, fields, 6, ln)
			if err != nil {
				return nil, err
			}
			if fields[2] != "local" && fields[2] != "global" {
				return nil, fmt.Errorf("line %d: unknown site kind %q", ln+1, fields[2])
			}
			var ops [3]int32
			for i, f := range fields[3:6] {
				n, err := strconv.ParseInt(f, 10, 32)
				if err != nil {
					return nil, fmt.Errorf("line %d: %v", ln+1, err)
				}
				ops[i] = int32(n)
			}
			d.Sites = append(d.Sites, VecSite{Local: fields[2] == "local", A: ops[0], Stride: ops[1], Off: ops[2]})
		case fields[0] == "veccol":
			d, err := vecAt(ch, fields, 8, ln)
			if err != nil {
				return nil, err
			}
			kind, ok := colByName[fields[2]]
			if !ok {
				return nil, fmt.Errorf("line %d: unknown column op %q", ln+1, fields[2])
			}
			var ops [5]int32
			for i, f := range fields[3:8] {
				n, err := strconv.ParseInt(f, 10, 32)
				if err != nil {
					return nil, fmt.Errorf("line %d: %v", ln+1, err)
				}
				ops[i] = int32(n)
			}
			d.Prog = append(d.Prog, ColIns{Kind: kind, Dst: ops[0], X: ops[1], Y: ops[2], Z: ops[3], Site: ops[4]})
		case strings.HasSuffix(fields[0], ":"):
			if len(fields) != 4 && len(fields) != 5 {
				return nil, fmt.Errorf("line %d: malformed instruction", ln+1)
			}
			idx, err := strconv.Atoi(strings.TrimSuffix(fields[0], ":"))
			if err != nil || idx != len(ch.Code) {
				return nil, fmt.Errorf("line %d: instruction index %q out of sequence (want %d)", ln+1, fields[0], len(ch.Code))
			}
			op, ok := opByName[fields[1]]
			if !ok {
				return nil, fmt.Errorf("line %d: unknown opcode %q", ln+1, fields[1])
			}
			a, err := strconv.ParseInt(fields[2], 10, 32)
			if err != nil {
				return nil, fmt.Errorf("line %d: %v", ln+1, err)
			}
			b, err := strconv.ParseInt(fields[3], 10, 32)
			if err != nil {
				return nil, fmt.Errorf("line %d: %v", ln+1, err)
			}
			in := Instr{Op: op, A: int32(a), B: int32(b)}
			if len(fields) == 5 {
				v, ok := strings.CutPrefix(fields[4], "w=")
				w, err := strconv.ParseUint(v, 10, 16)
				if !ok || err != nil || w == 0 {
					return nil, fmt.Errorf("line %d: malformed charge %q", ln+1, fields[4])
				}
				in.W = uint16(w)
			}
			ch.Code = append(ch.Code, in)
		default:
			return nil, fmt.Errorf("line %d: unrecognized line %q", ln+1, line)
		}
	}
	if !sawHeader {
		return nil, fmt.Errorf("missing chunk header")
	}
	return ch, nil
}

// vecAt resolves a vecupper/vecimm/vecsite/veccol line's descriptor:
// sub-lines always follow their vecloop header, so the index must name
// the most recently opened descriptor.
func vecAt(ch *Chunk, fields []string, want, ln int) (*VecLoopDesc, error) {
	if len(fields) != want {
		return nil, fmt.Errorf("line %d: malformed %s", ln+1, fields[0])
	}
	idx, err := strconv.Atoi(fields[1])
	if err != nil || idx != len(ch.VecLoops)-1 || idx < 0 {
		return nil, fmt.Errorf("line %d: %s index %q does not match open vecloop %d", ln+1, fields[0], fields[1], len(ch.VecLoops)-1)
	}
	return ch.VecLoops[idx], nil
}
