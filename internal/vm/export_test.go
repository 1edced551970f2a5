package vm

import (
	"fmt"
	"reflect"
)

// VecRuns reports the batches e's columnar tier has run.
func VecRuns(e *Engine) int64 { return e.vecRuns.Load() }

// PooledMachines checks every machine on the free list and puts it back:
// a pooled machine must hold no array, program or code reference, in its
// fields or anywhere in the capacity of its reused tables. It returns how
// many machines it checked.
func PooledMachines() (int, error) {
	var ms []*machine
	defer func() {
		for _, m := range ms {
			machFree <- m
		}
	}()
	for {
		select {
		case m := <-machFree:
			ms = append(ms, m)
			continue
		default:
		}
		break
	}
	for i, m := range ms {
		kept := *m
		kept.globals, kept.touchSlots, kept.regions = nil, nil, nil
		kept.devArrs, kept.devCells = nil, nil
		kept.frames, kept.pfVals, kept.col = nil, nil, colScratch{}
		if !reflect.ValueOf(kept).IsZero() {
			return len(ms), fmt.Errorf("machine %d: run state left set: %+v", i, kept)
		}
		for _, fr := range m.frames {
			if !allZero(fr.r[:cap(fr.r)]) || !allZero(fr.rs[:cap(fr.rs)]) {
				return len(ms), fmt.Errorf("machine %d: frame keeps an array", i)
			}
		}
		if !allZero(m.globals[:cap(m.globals)]) || !allZero(m.touchSlots[:cap(m.touchSlots)]) ||
			!allZero(m.devArrs[:cap(m.devArrs)]) || !allZero(m.devCells[:cap(m.devCells)]) ||
			!allZero(m.regions[:cap(m.regions)]) || !allZero(m.pfVals) || !allZero(m.col.arrs) {
			return len(ms), fmt.Errorf("machine %d: a reused table keeps a reference", i)
		}
		for _, reg := range m.col.regs {
			if reg != nil {
				return len(ms), fmt.Errorf("machine %d: column scratch keeps an array window", i)
			}
		}
	}
	return len(ms), nil
}

func allZero[T comparable](s []T) bool {
	var zero T
	for _, v := range s {
		if v != zero {
			return false
		}
	}
	return true
}
