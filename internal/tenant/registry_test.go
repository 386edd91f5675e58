package tenant

import (
	"errors"
	"sync"
	"testing"

	"uniask/internal/core"
)

// TestSingleServesOnlyTheDefaultTenant: the one-bank registry answers for
// the default tenant — its adopted engine, no envelope — without a lock or an
// allocation, and knows no other tenant.
func TestSingleServesOnlyTheDefaultTenant(t *testing.T) {
	eng := core.New(core.Config{})
	reg := Single(eng)
	allocs := testing.AllocsPerRun(1000, func() {
		got, err := reg.Engine(Default)
		if err != nil || got != eng || reg.Check(Default) != nil || reg.Limits(Default).MaxSessions >= 0 {
			t.Fatalf("default tenant: engine %p, err %v, limits %+v", got, err, reg.Limits(Default))
		}
	})
	if allocs != 0 {
		t.Fatalf("default-tenant lookup allocates %.0f times per request, want 0", allocs)
	}
	if active := reg.Active(); len(active) != 1 || active[0].ID != Default || active[0].Engine != eng {
		t.Fatalf("Active = %+v, want the default tenant's engine", active)
	}
	if err := reg.Check("banca-alfa"); !errors.Is(err, ErrUnknownTenant) {
		t.Fatalf("named tenant on a one-tenant registry: %v, want ErrUnknownTenant", err)
	}
	if err := reg.Check("BAD!!"); err == nil || errors.Is(err, ErrUnknownTenant) {
		t.Fatalf("malformed id: %v, want the ValidateID error", err)
	}
}

// TestRegistryObservesEachEngineOnce: Observe sees an adopted engine at
// once and a lazily built one as it is built — not again on later lookups,
// and not when the build failed; a registry without a default tenant refuses
// a request that names none.
func TestRegistryObservesEachEngineOnce(t *testing.T) {
	var seen []string
	observe := func(id string, _ *core.Engine) { seen = append(seen, id) }
	Single(core.New(core.Config{})).Observe(observe)

	f, _ := ParseFile([]byte(`{"tenants": {"banca-alfa": {}, "banca-rotta": {}}}`))
	reg := NewRegistry(NewOverrides(f), func(id string, _ Limits) (*core.Engine, error) {
		if id == "banca-rotta" {
			return nil, errors.New("corpus unreachable")
		}
		return core.New(core.Config{}), nil
	})
	reg.Observe(observe)
	// Concurrent first requests build once; gauges may poll meanwhile.
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := reg.Engine("banca-alfa"); err != nil {
				t.Error(err)
			}
			reg.Active()
		}()
	}
	wg.Wait()
	for i := 0; i < 2; i++ {
		if _, err := reg.Engine("banca-rotta"); err == nil {
			t.Fatal("failed build returned no error")
		}
	}
	if len(seen) != 2 || seen[0] != Default || seen[1] != "banca-alfa" {
		t.Fatalf("observed %q, want the adopted default engine and banca-alfa once each", seen)
	}
	if _, err := reg.Engine(Default); !errors.Is(err, ErrNoTenant) {
		t.Fatalf("tenant-less lookup without a default tenant: %v, want ErrNoTenant", err)
	}
	if active := reg.Active(); len(active) != 1 || active[0].ID != "banca-alfa" {
		t.Fatalf("Active = %+v, want banca-alfa only", active)
	}
}
