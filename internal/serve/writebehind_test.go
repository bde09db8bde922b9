package serve

import (
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"

	"maest/internal/obs"
)

// TestWriteBehind drives the one write-behind queue through scripted
// steps:
//
//	+N       enqueue N
//	hold     the next persist blocks until release
//	busy     wait until the writer is blocked in that persist
//	release  unblock the writer
//	sync     wait until everything enqueued so far is persisted
//	flush    stop intake and drain
//
// Estimate goroutines can outlive a 504'd request and persist after
// shutdown began, so an enqueue after flush must drop with a count, and
// shutdown paths flush more than once.
func TestWriteBehind(t *testing.T) {
	cases := []struct {
		name      string
		capacity  int
		script    string
		persisted []int
		dropped   int64
	}{
		{"enqueue then sync persists in order", 4, "+1 +2 +3 sync", []int{1, 2, 3}, 0},
		{"sync is repeatable", 4, "+1 sync +2 sync", []int{1, 2}, 0},
		{"full queue drops", 2, "hold +1 busy +2 +3 +4 release sync", []int{1, 2, 3}, 1},
		{"flush drains", 4, "+1 +2 flush", []int{1, 2}, 0},
		{"enqueue after flush drops", 4, "+1 flush +2", []int{1}, 1},
		{"second flush is a no-op", 4, "+1 flush flush +2 sync", []int{1}, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var (
				mu   sync.Mutex
				got  []int
				gate chan struct{} // non-nil while the writer is held
				busy = make(chan struct{}, 1)
			)
			dropped, depth := new(obs.Counter), new(obs.Gauge)
			q := newWriteBehind(tc.capacity, dropped, depth, func(v int) {
				mu.Lock()
				got = append(got, v)
				g := gate
				mu.Unlock()
				if g != nil {
					busy <- struct{}{}
					<-g
				}
			})
			for _, step := range strings.Fields(tc.script) {
				switch step {
				case "hold":
					mu.Lock()
					gate = make(chan struct{})
					mu.Unlock()
				case "busy":
					<-busy
				case "release":
					mu.Lock()
					close(gate)
					gate = nil
					mu.Unlock()
				case "sync":
					q.sync()
				case "flush":
					q.flush()
				default:
					v, err := strconv.Atoi(strings.TrimPrefix(step, "+"))
					if err != nil {
						t.Fatalf("bad step %q", step)
					}
					q.enqueue(v)
				}
			}
			q.flush()
			if !reflect.DeepEqual(got, tc.persisted) {
				t.Errorf("persisted %v, want %v", got, tc.persisted)
			}
			if q.droppedCount() != tc.dropped || dropped.Value() != tc.dropped {
				t.Errorf("dropped %d (metric %d), want %d", q.droppedCount(), dropped.Value(), tc.dropped)
			}
			if depth.Value() != 0 {
				t.Errorf("queue depth %v after flush, want 0", depth.Value())
			}
		})
	}
}
