package main

import (
	"context"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// opKind is what one scheduled operation does.
type opKind uint8

const (
	opVisit  opKind = iota // a participant's session plus two submits
	opRead                 // one dashboard GET of an analytics route
	opVerify               // one POST /api/v1/verify
)

// op is one scheduled operation. arg indexes the inputs of its kind.
type op struct {
	due  time.Duration // offset from the start of the measured phase
	kind opKind
	arg  int
}

// arrivals returns n arrival offsets of a Poisson process over [0, span)
// conditioned on n arrivals: sorted uniform draws. Fixing the count keeps
// the offered work identical across seeds; only the spacing varies.
func arrivals(rng *rand.Rand, n int, span time.Duration) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(rng.Int63n(int64(span)))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// schedule merges the arrivals of each kind into one due-ordered list.
func schedule(rng *rand.Rand, span time.Duration, counts map[opKind]int) []op {
	var ops []op
	for _, k := range []opKind{opVisit, opRead, opVerify} {
		for i, d := range arrivals(rng, counts[k], span) {
			ops = append(ops, op{due: d, kind: k, arg: i})
		}
	}
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].due < ops[j].due })
	return ops
}

// sleepGrain is the resolution of time.Sleep in an idle process: the
// runtime waits for timers in a poll whose timeout is whole milliseconds,
// so a sleep of 2.4 ms ends near 3 ms. Sleeping whole milliseconds ends
// on time; the fraction left over is spent yielding.
const sleepGrain = time.Millisecond

// generator runs a due-ordered schedule open-loop: an operation is sent
// when it is due whether or not earlier ones have finished.
type generator struct {
	workers int
	// margin is the calibrated sleep overshoot: sleeps end this much
	// before the due time, and the rest is spent yielding in a loop.
	margin time.Duration

	mu  sync.Mutex
	lag []float64 // ms from due to send, for operations a worker waited for
}

// newGenerator measures how late a whole-millisecond time.Sleep returns on
// this host and keeps the 90th percentile as the margin.
func newGenerator(workers int) *generator {
	const probe = 2 * time.Millisecond
	over := make([]float64, 40)
	for i := range over {
		t := time.Now()
		time.Sleep(probe)
		over[i] = ms(time.Since(t) - probe)
	}
	m := time.Duration(percentile(over, 90) * float64(time.Millisecond))
	return &generator{workers: workers, margin: max(m, 0)}
}

// waitUntil returns at t: it sleeps the whole milliseconds that end before
// t less the margin, then yields the processor in a loop until t.
func (g *generator) waitUntil(t time.Time) {
	if d := (time.Until(t) - g.margin).Truncate(sleepGrain); d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// run executes ops from start on g.workers goroutines and returns when
// all have finished or ctx is done. exec receives each operation's due
// time; latency is the caller's to take from it.
func (g *generator) run(ctx context.Context, start time.Time, ops []op, exec func(ctx context.Context, o op, due time.Time)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < g.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= len(ops) {
					return
				}
				due := start.Add(ops[i].due)
				if time.Now().Before(due) {
					// Only operations a worker waited for measure the
					// generator; a late pick-up is queueing, and counts in
					// the operation's own latency.
					g.waitUntil(due)
					lag := ms(time.Since(due))
					g.mu.Lock()
					g.lag = append(g.lag, lag)
					g.mu.Unlock()
				}
				exec(ctx, ops[i], due)
			}
		}()
	}
	wg.Wait()
}
