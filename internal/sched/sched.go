// Package sched is the work-stealing fork-join scheduler behind every
// parallel stage of a solve: independent sibling subtrees of the hierarchy
// recursion (internal/core) and λ-candidates of a sweep (internal/flows)
// all become tasks on one shared Pool.
//
// The design goal is determinism, not raw queue throughput: tasks are
// coarse (a whole subtree or candidate solve, microseconds to seconds
// each), so every queue operation runs under one pool mutex and
// the classic lock-free deque is not needed. What the scheduler does
// guarantee:
//
//   - Tasks communicate only through caller-indexed result slots, and
//     callers reduce by index, so which worker ran which task can never
//     change an outcome.
//   - A Group's Wait helps: it executes queued tasks (its own or stolen)
//     instead of blocking, so nested fork-join recursion cannot deadlock
//     and a Pool with zero background workers degenerates to serial
//     execution on the caller's goroutine (in submission order: a task
//     forked by a helper queues behind the tasks injected before it).
//   - Cancellation drains: a cancelled ctx does not drop queued tasks —
//     every task still runs (bodies are expected to observe ctx and exit
//     quickly), counters still balance, and Wait returns after the group
//     is fully accounted.
//
// Each worker owns a deque: the owner pushes and pops at the tail (LIFO,
// depth-first, cache-warm), thieves and helpers take from the head
// (FIFO, breadth-first — they steal the oldest, largest-granularity
// work). External submissions (from goroutines that are not pool
// workers) go to a shared inject queue.
package sched

import (
	"context"
	"runtime"
	"sync"
)

// Task is one unit of work. The ctx passed in derives from the Group's
// ctx; bodies should observe cancellation and return early, because
// queued tasks still run after the ctx is cancelled (the pool drains
// rather than drops).
type Task func(ctx context.Context)

// Stats counts scheduler traffic since the pool was created. After all
// groups have been waited, Submitted == Completed and Completed ==
// LocalPops + Steals + InjectRuns.
type Stats struct {
	// Submitted counts Group.Go calls.
	Submitted uint64
	// Completed counts finished tasks.
	Completed uint64
	// LocalPops counts tasks run by the worker that owned their deque.
	LocalPops uint64
	// Steals counts tasks taken from another worker's deque.
	Steals uint64
	// InjectRuns counts tasks run from the shared inject queue.
	InjectRuns uint64
}

// Pool is a fixed-size work-stealing scheduler. The zero value is not
// usable; create one with NewPool and release it with Close.
type Pool struct {
	mu     sync.Mutex
	cond   *sync.Cond
	ws     []*worker // background workers; len = parallelism-1
	inject []*task   // external submissions, FIFO
	closed bool
	wg     sync.WaitGroup

	stats Stats
}

type worker struct {
	p     *Pool
	id    int
	deque []*task // guarded by p.mu; owner uses the tail, thieves the head
}

type task struct {
	g  *Group
	fn Task
}

type workerKey struct{}

// withWorker tags ctx with the executing worker (nil for helpers running
// on non-worker goroutines), shadowing any tag from an outer task.
func withWorker(ctx context.Context, w *worker) context.Context {
	return context.WithValue(ctx, workerKey{}, w)
}

func workerOf(ctx context.Context, p *Pool) *worker {
	w, _ := ctx.Value(workerKey{}).(*worker)
	if w == nil || w.p != p {
		return nil
	}
	return w
}

// NewPool creates a pool with the given parallelism degree; n <= 0 means
// runtime.GOMAXPROCS(0). The pool starts n-1 background workers — the
// caller's goroutine is the n-th lane, because Group.Wait executes tasks
// itself. NewPool(1) therefore starts no goroutines at all and every
// task runs serially inside Wait.
func NewPool(n int) *Pool {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	p := &Pool{}
	p.cond = sync.NewCond(&p.mu)
	// Build the whole worker set before starting any goroutine: a
	// running worker scans p.ws inside takeLocked, so the slice must be
	// complete (and published) before the first loop begins.
	for i := 0; i < n-1; i++ {
		p.ws = append(p.ws, &worker{p: p, id: i})
	}
	for _, w := range p.ws {
		p.wg.Add(1)
		go w.loop()
	}
	return p
}

// Stats snapshots the traffic counters.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// Close stops the background workers after the queues drain. Callers
// must have waited all groups first; Close does not cancel anything.
func (p *Pool) Close() {
	p.mu.Lock()
	p.closed = true
	p.cond.Broadcast()
	p.mu.Unlock()
	p.wg.Wait()
}

// Group tracks a set of forked tasks for one join point. Create with
// Pool.Group, fork with Go, join with Wait. A Group is owned by the
// goroutine that created it: Go and Wait are not safe for concurrent use
// from multiple goroutines (tasks create their own child Groups
// instead).
type Group struct {
	p    *Pool
	ctx  context.Context
	open int // outstanding tasks, guarded by p.mu
}

// Group starts an empty task group joined on ctx. Pass the ctx the
// current task body received (not a detached one) so the scheduler can
// keep spawned subtasks on the current worker's deque.
func (p *Pool) Group(ctx context.Context) *Group {
	return &Group{p: p, ctx: ctx}
}

// Go forks one task. If the calling goroutine is a pool worker, the task
// is pushed on that worker's deque (tail); otherwise it goes to the
// shared inject queue.
func (g *Group) Go(fn Task) {
	t := &task{g: g, fn: fn}
	p := g.p
	p.mu.Lock()
	g.open++
	p.stats.Submitted++
	if w := workerOf(g.ctx, p); w != nil {
		w.deque = append(w.deque, t)
	} else {
		p.inject = append(p.inject, t)
	}
	p.cond.Broadcast()
	p.mu.Unlock()
}

// Wait joins the group: it executes queued tasks (its own first, then
// injected, then stolen) until every task forked on the group has
// completed, and returns the group ctx's error, if any. Helping is what
// makes nested fork-join safe: a Wait inside a task keeps the worker
// productive instead of parking it, so the DAG always makes progress.
func (g *Group) Wait() error {
	p := g.p
	p.mu.Lock()
	self := workerOf(g.ctx, p)
	for g.open > 0 {
		if t, src := p.takeLocked(self); t != nil {
			p.mu.Unlock()
			p.run(self, t, src)
			p.mu.Lock()
			continue
		}
		p.cond.Wait()
	}
	p.mu.Unlock()
	return g.ctx.Err()
}

const (
	srcLocal = iota
	srcInject
	srcSteal
)

// takeLocked picks the next runnable task under p.mu: the caller's own
// deque tail first, then the inject queue head, then a steal from the
// head of the first non-empty deque scanning away from the caller.
func (p *Pool) takeLocked(self *worker) (*task, int) {
	if self != nil && len(self.deque) > 0 {
		t := self.deque[len(self.deque)-1]
		self.deque[len(self.deque)-1] = nil
		self.deque = self.deque[:len(self.deque)-1]
		return t, srcLocal
	}
	if len(p.inject) > 0 {
		t := p.inject[0]
		p.inject[0] = nil
		p.inject = p.inject[1:]
		return t, srcInject
	}
	start := 0
	if self != nil {
		start = self.id + 1
	}
	for k := 0; k < len(p.ws); k++ {
		w := p.ws[(start+k)%len(p.ws)]
		if len(w.deque) > 0 {
			t := w.deque[0]
			w.deque[0] = nil
			w.deque = w.deque[1:]
			return t, srcSteal
		}
	}
	return nil, 0
}

// run executes one task on the given worker (nil for helpers) and
// retires it. The retirement is deferred so a panicking task body still
// unblocks its group's Wait instead of deadlocking the pool.
func (p *Pool) run(w *worker, t *task, src int) {
	defer p.finish(t, src)
	t.fn(withWorker(t.g.ctx, w))
}

func (p *Pool) finish(t *task, src int) {
	p.mu.Lock()
	switch src {
	case srcLocal:
		p.stats.LocalPops++
	case srcInject:
		p.stats.InjectRuns++
	default:
		p.stats.Steals++
	}
	p.stats.Completed++
	t.g.open--
	if t.g.open == 0 {
		p.cond.Broadcast()
	}
	p.mu.Unlock()
}

// loop is a background worker: run anything runnable, park when idle.
func (w *worker) loop() {
	p := w.p
	defer p.wg.Done()
	p.mu.Lock()
	for {
		if t, src := p.takeLocked(w); t != nil {
			p.mu.Unlock()
			p.run(w, t, src)
			p.mu.Lock()
			continue
		}
		if p.closed {
			p.mu.Unlock()
			return
		}
		p.cond.Wait()
	}
}
