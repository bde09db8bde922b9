package serve

import (
	"sync"
	"sync/atomic"

	"maest/internal/obs"
)

// writeBehind is the serving layer's one asynchronous persist queue:
// the request path enqueues a value and returns, and a single writer
// goroutine hands the queued values, in order, to persist off the
// latency path.  Everything persisted through it is recomputable (a
// cached answer) or best-effort history (a sampled trace), so a full
// queue drops the value — counted — rather than block a request.
//
// The queue is a slice under a condition variable rather than a
// channel: sync (wait for everything enqueued so far, keep serving)
// must be repeatable, and a closed channel only drains once.
type writeBehind[T any] struct {
	persist  func(T)
	capacity int
	dropped  *obs.Counter // process-wide drop metric
	depth    *obs.Gauge   // process-wide queue-depth metric

	mu      sync.Mutex
	cond    sync.Cond
	queue   []T
	closed  bool
	writing bool // the writer holds a drained batch not yet persisted
	wg      sync.WaitGroup
	drops   atomic.Int64
}

// newWriteBehind starts the writer goroutine; persist runs on it, one
// value at a time.
func newWriteBehind[T any](capacity int, dropped *obs.Counter, depth *obs.Gauge, persist func(T)) *writeBehind[T] {
	q := &writeBehind[T]{persist: persist, capacity: capacity, dropped: dropped, depth: depth}
	q.cond.L = &q.mu
	q.wg.Add(1)
	go q.writer()
	return q
}

func (q *writeBehind[T]) writer() {
	defer q.wg.Done()
	q.mu.Lock()
	for {
		for len(q.queue) == 0 && !q.closed {
			q.cond.Wait()
		}
		if len(q.queue) == 0 {
			q.mu.Unlock()
			return
		}
		batch := q.queue
		q.queue = nil
		q.writing = true
		q.depth.Set(0)
		q.mu.Unlock()

		for _, v := range batch {
			q.persist(v)
		}

		q.mu.Lock()
		q.writing = false
		q.cond.Broadcast() // wake sync waiters
	}
}

// enqueue hands v to the writer, dropping it (counted) when the queue
// is full or flushed.
func (q *writeBehind[T]) enqueue(v T) {
	q.mu.Lock()
	if q.closed || len(q.queue) >= q.capacity {
		q.mu.Unlock()
		q.drops.Add(1)
		q.dropped.Inc()
		return
	}
	q.queue = append(q.queue, v)
	q.depth.Set(float64(len(q.queue)))
	q.mu.Unlock()
	// Broadcast, not Signal: sync waiters share the condition, and a
	// signal they consumed would leave the writer asleep.
	q.cond.Broadcast()
}

// sync blocks until every value enqueued so far has been persisted,
// without stopping intake — the deterministic settling point tests use
// before asserting on store contents.
func (q *writeBehind[T]) sync() {
	q.mu.Lock()
	for len(q.queue) > 0 || q.writing {
		q.cond.Wait()
	}
	q.mu.Unlock()
}

// flush stops intake and blocks until the queue has drained.  Call
// before closing the store behind persist; safe to call more than once.
func (q *writeBehind[T]) flush() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.cond.Broadcast()
	q.wg.Wait()
}

// droppedCount returns the values this queue has dropped.
func (q *writeBehind[T]) droppedCount() int64 { return q.drops.Load() }
