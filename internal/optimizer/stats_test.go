package optimizer

import (
	"encoding/json"
	"reflect"
	"slices"
	"testing"

	"repro/internal/logical"
	"repro/internal/sql/parser"
)

// TestObservedEmptyTableStaysEmpty pins the observed-empty fix: a scan
// that materialized zero keys must not be re-defaulted to
// DefaultTableKeys, and the cost model must price the next scan of that
// table at the single terminal list prompt.
func TestObservedEmptyTableStaysEmpty(t *testing.T) {
	st := NewStatistics()
	st.ObserveScan("city", 0, 1)

	ts := st.Table("city")
	if !ts.Seen {
		t.Fatalf("observed table not marked seen: %+v", ts)
	}
	if ts.Keys != 0 {
		t.Fatalf("observed-empty table re-defaulted: Keys = %v, want 0", ts.Keys)
	}

	sel, err := parser.ParseSelect("SELECT name FROM city")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := logical.Build(sel, resolver{})
	if err != nil {
		t.Fatal(err)
	}
	cost := Estimate(plan, st, CostParams{})
	if cost.Prompts != 1 {
		t.Errorf("known-empty scan priced at %v prompts, want 1", cost.Prompts)
	}

	// An unobserved table still falls back to the default cardinality.
	if got := st.Table("mayor").Keys; got != DefaultTableKeys {
		t.Errorf("unobserved table Keys = %v, want default %v", got, DefaultTableKeys)
	}
}

// TestObserveScanRecoversFromEmpty checks the EMA still adapts once a
// previously-empty table grows rows.
func TestObserveScanRecoversFromEmpty(t *testing.T) {
	st := NewStatistics()
	st.ObserveScan("city", 0, 1)
	st.ObserveScan("city", 10, 2)
	if got := st.Table("city").Keys; got != 5 {
		t.Errorf("Keys after 0 then 10 = %v, want EMA 5", got)
	}
}

// TestSnapshotRestoreRoundTrip exercises the persistence serialization:
// a snapshot survives JSON and restores into a fresh store, and restore
// never clobbers entries the live store already learned.
func TestSnapshotRestoreRoundTrip(t *testing.T) {
	src := NewStatistics()
	src.SetTableKeys("city", 137)
	src.ObserveScan("mayor", 0, 1)
	src.ObserveFilter("city", "population", ">", "1000000", 100, 40)

	raw, err := json.Marshal(src.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var snap StatsSnapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatal(err)
	}

	dst := NewStatistics()
	dst.Restore(snap)
	if !reflect.DeepEqual(dst.Snapshot(), src.Snapshot()) {
		t.Errorf("restored snapshot differs:\n got %+v\nwant %+v", dst.Snapshot(), src.Snapshot())
	}
	if got := dst.Table("mayor"); !got.Seen || got.Keys != 0 {
		t.Errorf("observed-empty table lost across restore: %+v", got)
	}
	if got := dst.Selectivity("city", "population", ">", "1000000"); got != 0.4 {
		t.Errorf("restored selectivity = %v, want 0.4", got)
	}

	// Live observations win over the snapshot.
	live := NewStatistics()
	live.SetTableKeys("city", 9)
	live.Restore(snap)
	if got := live.Table("city").Keys; got != 9 {
		t.Errorf("restore clobbered live stats: Keys = %v, want 9", got)
	}
	if got := live.Table("mayor").Keys; got != 0 {
		t.Errorf("restore did not fill gap: mayor Keys = %v, want 0", got)
	}
}

// TestSelectivityKeys pins the selectivity keys a snapshot persists: the
// table, attribute and literal lower-cased (non-ASCII text too), the
// operator as given, joined by '|', and the family key without the
// literal. A moved byte orphans every persisted observation.
func TestSelectivityKeys(t *testing.T) {
	st := NewStatistics()
	st.ObserveFilter("City", "Name", "=", "'Zürich'", 10, 5)
	st.ObserveFilter("STÄDTE", "Bürgermeister", "LIKE", "'ÉLISE%'", 10, 2)
	st.ObserveFilter("city", "population", ">", "1000000", 10, 4)
	var got []string
	for k := range st.Snapshot().Selectivities {
		got = append(got, k)
	}
	slices.Sort(got)
	want := []string{
		"city|name|=",
		"city|name|=|'zürich'",
		"city|population|>",
		"city|population|>|1000000",
		"städte|bürgermeister|LIKE",
		"städte|bürgermeister|LIKE|'élise%'",
	}
	if !slices.Equal(got, want) {
		t.Errorf("snapshot keys %q, want %q", got, want)
	}
	if sel := st.Selectivity("STÄDTE", "BÜRGERMEISTER", "LIKE", "'élise%'"); sel != 0.2 {
		t.Errorf("Selectivity of a mixed-case non-ASCII key = %v, want 0.2", sel)
	}
}
