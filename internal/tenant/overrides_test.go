package tenant

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestParseFileOverlayAndClass(t *testing.T) {
	f, err := ParseFile([]byte(`{
		"defaults": {"rate": 50, "burst": 100, "maxConcurrent": 8, "cacheShare": 128},
		"tenants": {
			"banca-alfa":  {"rate": 200, "maxConcurrent": 16},
			"banca-batch": {"class": "best-effort", "rate": 20}
		}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	ov := NewOverrides(f)

	alfa := ov.For("banca-alfa")
	if alfa.RateLimit != 200 || alfa.MaxConcurrent != 16 {
		t.Fatalf("banca-alfa limits = %+v, want rate 200 maxConcurrent 16", alfa)
	}
	if alfa.Burst != 100 || alfa.CacheShare != 128 {
		t.Fatalf("banca-alfa should inherit burst/cacheShare from defaults, got %+v", alfa)
	}
	if alfa.Class != Interactive {
		t.Fatalf("banca-alfa class = %v, want interactive", alfa.Class)
	}
	if batch := ov.For("banca-batch"); batch.Class != BestEffort {
		t.Fatalf("banca-batch class = %v, want best-effort", batch.Class)
	}
	// Unlisted tenants get the defaults verbatim and are not Known.
	if other := ov.For("banca-omega"); other.RateLimit != 50 {
		t.Fatalf("unlisted tenant rate = %v, want defaults 50", other.RateLimit)
	}
	if ov.Known("banca-omega") || !ov.Known("banca-alfa") {
		t.Fatal("Known: want banca-alfa known, banca-omega unknown")
	}
	if ids := ov.TenantIDs(); len(ids) != 2 || ids[0] != "banca-alfa" || ids[1] != "banca-batch" {
		t.Fatalf("TenantIDs = %v", ids)
	}
	// The class travels as its name, so a marshalled file parses back.
	data, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseFile(data)
	if err != nil {
		t.Fatalf("ParseFile(json.Marshal(f)): %v\n%s", err, data)
	}
	if !strings.Contains(string(data), `"class":"best-effort"`) || !reflect.DeepEqual(back, f) {
		t.Fatalf("round trip lost the file:\n got %+v\nwant %+v\nwire %s", back, f, data)
	}
}

func TestParseFileRejectsBadInput(t *testing.T) {
	cases := map[string]string{
		"unknown key":     `{"defaults": {"rait": 50}}`,
		"unknown class":   `{"tenants": {"a": {"class": "platinum"}}}`,
		"negative burst":  `{"defaults": {"burst": -1}}`,
		"bad sample rate": `{"tenants": {"a": {"traceSampleRate": 2}}}`,
		"bad tenant id":   `{"tenants": {"no spaces": {}}}`,
		"not even json":   `{defaults}`,
		"unknown top key": `{"defaultz": {}}`,
	}
	for name, input := range cases {
		if _, err := ParseFile([]byte(input)); err == nil {
			t.Errorf("%s: ParseFile accepted %q", name, input)
		}
	}
}

// TestReloadKeepsLastGood is the satellite requirement: a bad overrides
// push must keep the last good configuration serving and log the failure —
// never drop traffic.
func TestReloadKeepsLastGood(t *testing.T) {
	path := filepath.Join(t.TempDir(), "overrides.json")
	good := `{"defaults": {"rate": 50}, "tenants": {"banca-alfa": {"rate": 200}}}`
	if err := os.WriteFile(path, []byte(good), 0o644); err != nil {
		t.Fatal(err)
	}
	ov, err := LoadOverrides(path)
	if err != nil {
		t.Fatal(err)
	}
	var logged []string
	ov.Log = func(format string, args ...any) {
		logged = append(logged, strings.TrimSpace(format))
	}
	v1 := ov.Version()

	// Push a broken file: reload must fail, keep serving the old limits,
	// and log that it kept the last good config.
	if err := os.WriteFile(path, []byte(`{"defaults": {"rate": bad}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := ov.Reload(); err == nil {
		t.Fatal("Reload accepted a malformed file")
	}
	if got := ov.For("banca-alfa").RateLimit; got != 200 {
		t.Fatalf("after bad reload banca-alfa rate = %v, want last-good 200", got)
	}
	if ov.Version() != v1 {
		t.Fatalf("version advanced on a failed reload: %d -> %d", v1, ov.Version())
	}
	foundKeep := false
	for _, l := range logged {
		if strings.Contains(l, "keeping last good config") {
			foundKeep = true
		}
	}
	if !foundKeep {
		t.Fatalf("failed reload did not log keeping last good config; logs: %v", logged)
	}

	// A good push then applies.
	if err := os.WriteFile(path, []byte(`{"defaults": {"rate": 50}, "tenants": {"banca-alfa": {"rate": 300}}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := ov.Reload(); err != nil {
		t.Fatal(err)
	}
	if got := ov.For("banca-alfa").RateLimit; got != 300 {
		t.Fatalf("after good reload banca-alfa rate = %v, want 300", got)
	}
	if ov.Version() != v1+1 {
		t.Fatalf("version = %d, want %d", ov.Version(), v1+1)
	}
}

// TestReloadNeverDropsTraffic drives admission continuously through a bad
// reload: every request keeps resolving limits — a reload failure is
// invisible to the data path.
func TestReloadNeverDropsTraffic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "overrides.json")
	if err := os.WriteFile(path, []byte(`{"defaults": {"rate": -1, "maxConcurrent": -1}, "tenants": {"banca-alfa": {}}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	ov, err := LoadOverrides(path)
	if err != nil {
		t.Fatal(err)
	}
	ctrl := NewController(AdmissionConfig{Capacity: -1}, ov)

	admitOnce := func() {
		t.Helper()
		release, rej := ctrl.Admit(ctxb(t), "banca-alfa")
		if rej != nil {
			t.Fatalf("request shed during reload churn: %+v", rej)
		}
		release(time.Millisecond)
	}
	admitOnce()
	os.WriteFile(path, []byte(`broken{`), 0o644)
	ov.Reload() // fails, keeps last good
	admitOnce()
	os.WriteFile(path, []byte(`{"defaults": {"rate": -1, "maxConcurrent": -1}, "tenants": {"banca-alfa": {}, "banca-beta": {}}}`), 0o644)
	if err := ov.Reload(); err != nil {
		t.Fatal(err)
	}
	admitOnce()
	if !ov.Known("banca-beta") {
		t.Fatal("good reload did not apply")
	}
}

func TestWatchPicksUpChange(t *testing.T) {
	path := filepath.Join(t.TempDir(), "overrides.json")
	if err := os.WriteFile(path, []byte(`{"defaults": {"rate": 50}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	ov, err := LoadOverrides(path)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := contextWithCancel()
	defer cancel()
	go ov.Watch(ctx, 5*time.Millisecond)

	// The watcher compares mtimes; backdate the original so the rewrite is
	// a guaranteed change even on coarse-mtime filesystems.
	old := time.Now().Add(-time.Hour)
	os.Chtimes(path, old, old)
	if err := os.WriteFile(path, []byte(`{"defaults": {"rate": 75}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for ov.For("x").RateLimit != 75 {
		if time.Now().After(deadline) {
			t.Fatalf("watcher never applied the change; rate = %v", ov.For("x").RateLimit)
		}
		time.Sleep(time.Millisecond)
	}
}
