package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/perm"
)

// reference holds the optimal cost of every spec a run can send,
// computed during set-up by an in-process core.Synthesizer over the
// run's own table. It is read-only once built.
type reference struct {
	cost   map[perm.Perm]int
	direct map[perm.Perm]bool
}

// newReference answers every spec in distinct with synth.
func newReference(ctx context.Context, synth *core.Synthesizer, distinct []perm.Perm) (*reference, error) {
	infos, err := answerAll(ctx, synth, distinct)
	if err != nil {
		return nil, err
	}
	ref := &reference{cost: make(map[perm.Perm]int, len(distinct)), direct: make(map[perm.Perm]bool, len(distinct))}
	for i, f := range distinct {
		ref.cost[f], ref.direct[f] = infos[i].Cost, infos[i].Direct
	}
	return ref, nil
}

// answerAll answers specs with synth, spread over one goroutine per
// core.
func answerAll(ctx context.Context, synth *core.Synthesizer, specs []perm.Perm) ([]core.Info, error) {
	infos := make([]core.Info, len(specs))
	errs := make([]error, runtime.NumCPU())
	var wg sync.WaitGroup
	for w := range errs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(specs); i += len(errs) {
				_, info, err := synth.SynthesizeInfoCtx(ctx, specs[i])
				if err != nil {
					errs[w] = fmt.Errorf("reference answer for %v: %w", specs[i], err)
					return
				}
				infos[i] = info
			}
		}(w)
	}
	wg.Wait()
	return infos, errors.Join(errs...)
}

// check accepts c as the answer for f only if it computes f with the
// optimal number of gates.
func (r *reference) check(f perm.Perm, c circuit.Circuit) error {
	want, ok := r.cost[f]
	if !ok {
		return fmt.Errorf("spec %v has no reference answer", f)
	}
	if got := c.Perm(); got != f {
		return fmt.Errorf("answer for %v computes %v", f, got)
	}
	if len(c) != want {
		return fmt.Errorf("answer for %v has %d gates, optimal is %d", f, len(c), want)
	}
	return nil
}

// costHistogram counts the optimal costs of specs (one entry per
// occurrence) and the share of them answered by a meet-in-the-middle
// scan rather than a direct lookup.
func (r *reference) costHistogram(specs []perm.Perm) (map[int]int, float64) {
	h := map[int]int{}
	mitm := 0
	for _, f := range specs {
		h[r.cost[f]]++
		if !r.direct[f] {
			mitm++
		}
	}
	if len(specs) == 0 {
		return h, 0
	}
	return h, float64(mitm) / float64(len(specs))
}
