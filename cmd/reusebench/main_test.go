package main

import (
	"encoding/json"
	"testing"
	"time"

	"reuseiq/internal/experiments"
)

func TestMakeProgressRecord(t *testing.T) {
	sp := experiments.Spec{Kernel: "adi", IQSize: 64, Reuse: true}
	rec := makeProgressRecord(3, 12, sp, experiments.RunResult{}, 6*time.Second)
	if rec.Done != 3 || rec.Total != 12 || rec.Kernel != "adi" || rec.IQ != 64 || !rec.Reuse {
		t.Fatalf("record fields wrong: %+v", rec)
	}
	if rec.ElapsedMS != 6000 {
		t.Errorf("ElapsedMS = %d, want 6000", rec.ElapsedMS)
	}
	// 6s for 3 points -> 2s/point -> 9 remaining -> 18s ETA.
	if rec.EtaMS != 18000 {
		t.Errorf("EtaMS = %d, want 18000", rec.EtaMS)
	}
	if got := rec.eta(); got != "18s" {
		t.Errorf("eta() = %q, want \"18s\"", got)
	}
}

func TestProgressRecordUnknownETA(t *testing.T) {
	rec := makeProgressRecord(0, 12, experiments.Spec{Kernel: "lms", IQSize: 32}, experiments.RunResult{}, 0)
	if rec.EtaMS != -1 {
		t.Errorf("EtaMS with no elapsed time = %d, want -1", rec.EtaMS)
	}
	if got := rec.eta(); got != "?" {
		t.Errorf("eta() = %q, want \"?\"", got)
	}
}

func TestProgressRecordJSONShape(t *testing.T) {
	rec := makeProgressRecord(1, 2, experiments.Spec{Kernel: "adi", IQSize: 128}, experiments.RunResult{}, time.Second)
	data, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"done", "total", "kernel", "iq", "reuse", "elapsed_ms", "eta_ms"} {
		if _, ok := m[k]; !ok {
			t.Errorf("progress record missing %q key: %s", k, data)
		}
	}
	// run_id is omitted when no ledger produced one, so pre-ledger consumers
	// see unchanged records.
	if _, ok := m["run_id"]; ok {
		t.Errorf("progress record has run_id key with no ledger: %s", data)
	}
}

// TestProgressRecordRunIDRoundTrip pins the ledger correlation contract: the
// RunID a Suite.Progress callback reports survives the JSON wire format that
// -progress-json lines and SSE "progress" events share, so a consumer can
// join live progress against ledger records by id.
func TestProgressRecordRunIDRoundTrip(t *testing.T) {
	r := experiments.RunResult{RunID: "a1b2c3d4e5f60718"}
	rec := makeProgressRecord(2, 4, experiments.Spec{Kernel: "adi", IQSize: 64}, r, time.Second)
	if rec.RunID != r.RunID {
		t.Fatalf("RunID = %q, want %q", rec.RunID, r.RunID)
	}
	data, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	var back progressRecord
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.RunID != r.RunID {
		t.Errorf("run_id after round trip = %q, want %q", back.RunID, r.RunID)
	}
}

func TestCellTimesKeepsFigure5CellsSorted(t *testing.T) {
	var c cellTimes
	r := experiments.RunResult{Cycles: 1000}
	c.record(experiments.Spec{Kernel: "wss", IQSize: 32, Reuse: true, NBLTSize: -1}, r, 2*time.Millisecond)
	c.record(experiments.Spec{Kernel: "aps", IQSize: 256, Reuse: true, NBLTSize: -1}, r, time.Millisecond)
	// Not Figure 5 cells: baseline, distributed, non-default NBLT.
	c.record(experiments.Spec{Kernel: "aps", IQSize: 64, NBLTSize: -1}, r, time.Millisecond)
	c.record(experiments.Spec{Kernel: "aps", IQSize: 64, Reuse: true, Distributed: true, NBLTSize: -1}, r, time.Millisecond)
	c.record(experiments.Spec{Kernel: "aps", IQSize: 64, Reuse: true, NBLTSize: 4}, r, time.Millisecond)
	got := c.sections()
	if len(got) != 2 || got[0].Name != "aps/iq256" || got[1].Name != "wss/iq32" {
		t.Fatalf("sections = %+v, want aps/iq256 then wss/iq32", got)
	}
	if got[0].SimulatedCycles != 1000 || got[0].NSPerCycle != 1000 || got[1].NSPerCycle != 2000 {
		t.Errorf("cycles/ns per cycle wrong: %+v", got)
	}
}
