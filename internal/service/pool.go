package service

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
)

// ErrDraining is returned for work submitted after shutdown began.
var ErrDraining = errors.New("service: draining, not accepting new work")

// lane selects a work-pool priority class. Interactive work (ad-hoc
// /v1/measure requests) is dequeued before bulk work (study traffic from
// the cluster scheduler, dataset and experiment fills), so a human
// poking one cell is never stuck behind a five-thousand-cell study.
// Preemption is at dequeue granularity: a bulk cell already executing
// runs to completion, but every idle worker drains the interactive lane
// dry before touching the bulk lane again.
type lane int

const (
	laneInteractive lane = iota
	laneBulk
	laneCount
)

// workPool executes submitted closures on a fixed set of workers fed by
// two bounded queues, one per priority lane. The queue bounds are the
// daemon's admission control: when a lane is full, DoLane blocks with
// the caller's context, so overload turns into request latency (and
// eventually client timeouts) rather than unbounded goroutine or memory
// growth.
type workPool struct {
	queues [laneCount]chan func()
	wg     sync.WaitGroup

	mu       sync.RWMutex
	draining bool

	inflight atomic.Int64 // closures currently executing
}

func newWorkPool(workers, depth int) *workPool {
	if workers < 1 {
		workers = 1
	}
	if depth < 1 {
		depth = 1
	}
	p := &workPool{}
	for l := range p.queues {
		p.queues[l] = make(chan func(), depth)
	}
	for i := 0; i < workers; i++ {
		p.wg.Add(1)
		go p.work()
	}
	return p
}

// work is one worker: a biased two-lane consumer. The non-blocking
// first select gives the interactive lane strict priority whenever it
// has work; only an empty interactive lane lets the worker block on
// both. A closed, drained lane reads as ok=false and is retired by
// nilling its channel (a nil channel case is never ready in a select),
// so the worker exits once both lanes are closed and empty.
func (p *workPool) work() {
	defer p.wg.Done()
	qi, qb := p.queues[laneInteractive], p.queues[laneBulk]
	run := func(fn func()) {
		p.inflight.Add(1)
		fn()
		p.inflight.Add(-1)
	}
	for qi != nil || qb != nil {
		select {
		case fn, ok := <-qi:
			if !ok {
				qi = nil
				continue
			}
			run(fn)
			continue
		default:
		}
		select {
		case fn, ok := <-qi:
			if !ok {
				qi = nil
				continue
			}
			run(fn)
		case fn, ok := <-qb:
			if !ok {
				qb = nil
				continue
			}
			run(fn)
		}
	}
}

type poolResult struct {
	val any
	err error
}

// doneChans recycles DoLane's single-use result channels. A channel is
// returned to the pool only on paths where no send can still be
// pending: after the result is received, or when the task was never
// enqueued (ctx expired first), so a recycled channel is always empty.
var doneChans = sync.Pool{New: func() any { return make(chan poolResult, 1) }}

// DoLane runs fn on the pool's given lane and waits for its result.
// Enqueueing respects ctx (a caller can give up while the queue is
// full); once enqueued the closure always runs to completion and DoLane
// waits for it — the fills this pool exists for are deterministic and
// cacheable, so abandoning one mid-flight would only waste the work.
func (p *workPool) DoLane(ctx context.Context, l lane, fn func() (any, error)) (any, error) {
	done := doneChans.Get().(chan poolResult)
	task := func() {
		val, err := fn()
		done <- poolResult{val, err}
	}

	// The read lock is held across the (possibly blocking) send: Close
	// closes the queues only under the write lock, which it cannot take
	// while any sender is in flight, so a send on a closed channel is
	// impossible. Readers do not starve each other, and the workers keep
	// consuming, so a full queue resolves to space or to ctx expiry.
	p.mu.RLock()
	if p.draining {
		p.mu.RUnlock()
		doneChans.Put(done)
		return nil, ErrDraining
	}
	select {
	case p.queues[l] <- task:
		p.mu.RUnlock()
	case <-ctx.Done():
		p.mu.RUnlock()
		doneChans.Put(done)
		return nil, ctx.Err()
	}
	r := <-done
	doneChans.Put(done)
	return r.val, r.err
}

// QueueDepth reports queued (not yet executing) tasks across both lanes.
func (p *workPool) QueueDepth() int {
	return len(p.queues[laneInteractive]) + len(p.queues[laneBulk])
}

// Inflight reports closures currently executing.
func (p *workPool) Inflight() int64 { return p.inflight.Load() }

// Close drains the pool: new DoLane calls fail with ErrDraining, queued
// and in-flight closures run to completion, then the workers exit.
func (p *workPool) Close() {
	p.mu.Lock()
	if p.draining {
		p.mu.Unlock()
		return
	}
	p.draining = true
	for _, q := range p.queues {
		close(q)
	}
	p.mu.Unlock()
	p.wg.Wait()
}
