package serve

import (
	"strings"
	"sync"
	"testing"

	"maest/internal/core"
	"maest/internal/engine"
	"maest/internal/hdl"
	"maest/internal/netlist"
	"maest/internal/tech"
)

func mustParse(t *testing.T, src string) *netlist.Circuit {
	t.Helper()
	c, err := hdl.ParseMnet(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCacheKeyCanonicalization(t *testing.T) {
	base := mustParse(t, "module k\nport in a\ndevice g1 INV a y1\ndevice g2 INV y1 y2\nend\n")
	reordered := mustParse(t, "# noise\nmodule k\n\nport in a\ndevice g2 INV y1 y2\ndevice g1 INV a y1\nend\n")
	opts := core.SCOptions{}
	if CacheKey(base, "nmos25", opts) != CacheKey(reordered, "nmos25", opts) {
		t.Fatal("declaration order changed the content address")
	}

	// Every estimation input participates in the key.
	distinct := map[Key]string{CacheKey(base, "nmos25", opts): "base"}
	for name, k := range map[string]Key{
		"process": CacheKey(base, "cmos30", opts),
		"rows":    CacheKey(base, "nmos25", core.SCOptions{Rows: 3}),
		"sharing": CacheKey(base, "nmos25", core.SCOptions{TrackSharing: true}),
		"module name": CacheKey(mustParse(t,
			"module k2\nport in a\ndevice g1 INV a y1\ndevice g2 INV y1 y2\nend\n"), "nmos25", opts),
		"connectivity": CacheKey(mustParse(t,
			"module k\nport in a\ndevice g1 INV a y1\ndevice g2 INV a y2\nend\n"), "nmos25", opts),
	} {
		if prev, dup := distinct[k]; dup {
			t.Errorf("%s collides with %s", name, prev)
		}
		distinct[k] = name
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := NewPlanCache(2)
	keys := make([]Key, 3)
	for i := range keys {
		keys[i] = Key{byte(i)}
		c.Put(keys[i], new(engine.Plan))
	}
	// Capacity 2: key 0 is the LRU victim of inserting key 2.
	if _, ok := c.Get(keys[0]); ok {
		t.Fatal("oldest entry survived eviction")
	}
	if _, ok := c.Get(keys[1]); !ok {
		t.Fatal("recent entry evicted")
	}
	// Touching key 1 makes key 2 the next victim.
	c.Put(Key{9}, new(engine.Plan))
	if _, ok := c.Get(keys[2]); ok {
		t.Fatal("LRU order ignores recency of use")
	}
	if _, ok := c.Get(keys[1]); !ok {
		t.Fatal("most recently used entry evicted")
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d, want 2", c.Len())
	}
}

// A re-put keeps the resident plan: equal keys are equivalent plans,
// and the resident one's memo holds the answers computed so far.
func TestCacheDisabledAndRefresh(t *testing.T) {
	var nilCache *PlanCache
	pl := new(engine.Plan)
	if got := nilCache.Put(Key{1}, pl); got != pl {
		t.Fatal("nil cache did not hand the plan back")
	}
	if _, ok := nilCache.Get(Key{1}); ok {
		t.Fatal("nil cache returned a hit")
	}
	if NewPlanCache(0) != nil || NewPlanCache(-5) != nil {
		t.Fatal("non-positive capacity did not disable the cache")
	}

	c := NewPlanCache(1)
	first, second := new(engine.Plan), new(engine.Plan)
	c.Put(Key{1}, first)
	if got := c.Put(Key{1}, second); got != first {
		t.Fatal("re-put did not answer the resident plan")
	}
	if c.Len() != 1 {
		t.Fatalf("len = %d after re-put", c.Len())
	}
	if got, _ := c.Get(Key{1}); got != first {
		t.Fatal("re-put replaced the resident plan")
	}
}

func TestCacheConcurrentAccess(t *testing.T) {
	c := NewPlanCache(16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := Key{byte(i / 4 % 32)}
				// Two sources per plan key, so aliases also move between
				// the sources of one plan.
				alias := Key{k[0], byte(g % 2)}
				switch i % 4 {
				case 0:
					c.Put(k, new(engine.Plan))
				case 1:
					c.setAlias(alias, k)
				case 2:
					c.lookupAlias(alias)
				default:
					c.Get(k)
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Len() > 16 {
		t.Fatalf("cache overflowed capacity: %d", c.Len())
	}
	checkAliases(t, c)
}

// The key must be stable against tech-process pointer identity: only
// the name participates, so two lookups of the same process agree.
func TestCacheKeyProcessByName(t *testing.T) {
	c := mustParse(t, "module k\nport in a\ndevice g1 INV a y\nend\n")
	p1, p2 := tech.NMOS25(), tech.NMOS25()
	if p1 == p2 {
		t.Fatal("expected distinct process instances")
	}
	if CacheKey(c, p1.Name, core.SCOptions{}) != CacheKey(c, p2.Name, core.SCOptions{}) {
		t.Fatal("identical processes hashed differently")
	}
}
