package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestSelfTimeArithmetic(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "op", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "a", Start: 10, End: 40},  // plain child
		{ID: 2, Parent: 0, Name: "b", Start: 30, End: 60},  // overlaps a: union 10..60
		{ID: 3, Parent: 0, Name: "c", Start: 90, End: 130}, // sticks out: clipped to 90..100
		{ID: 4, Parent: 1, Name: "d", Start: 10, End: 40},  // covers its parent exactly
		{ID: 5, Parent: -1, Name: "op", Start: 200, End: 300},
		{ID: 6, Parent: 5, Name: "a", Start: 150, End: 190}, // wholly outside its parent
	}
	want := []int64{100 - 50 - 10, 0, 30, 40, 30, 100, 40}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of span %d (%s) = %d, want %d", i, spans[i].Name, got[i], want[i])
		}
	}
	// op spans: 40 + 100 of their own out of 200.
	if f := selfFrac(spans, "op"); f != 0.7 {
		t.Errorf("selfFrac(op) = %v, want 0.7", f)
	}
	if f := selfFrac(spans, "missing"); f != 0 {
		t.Errorf("selfFrac of no spans = %v, want 0", f)
	}
}

func TestTracerRecordsAndNilTracerDoesNot(t *testing.T) {
	var off *tracer
	if id := off.begin("x", -1, 0); id != -1 {
		t.Errorf("nil tracer gave span id %d", id)
	}
	off.end(-1)
	if off.snapshot() != nil {
		t.Error("nil tracer has spans")
	}

	tr := newTracer()
	root := tr.begin("op", -1, 7)
	child := tr.begin("call", root, 7)
	tr.end(child)
	tr.end(root)
	spans := tr.snapshot()
	if len(spans) != 2 || spans[1].Parent != root || spans[1].Iter != 7 {
		t.Fatalf("unexpected spans %+v", spans)
	}
	if spans[0].Start > spans[1].Start || spans[1].End > spans[0].End {
		t.Errorf("child %+v is not inside its parent %+v", spans[1], spans[0])
	}

	path := filepath.Join(t.TempDir(), "spans.jsonl")
	if err := writeSpans(path, []workloadSpans{{"mc_run", spans}}); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	lines := 0
	for sc.Scan() {
		var line map[string]any
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatal(err)
		}
		for _, key := range []string{"workload", "id", "parent", "name", "iteration", "start_ns", "end_ns"} {
			if _, ok := line[key]; !ok {
				t.Errorf("span line lacks %q: %s", key, sc.Text())
			}
		}
		lines++
	}
	if lines != 2 {
		t.Errorf("wrote %d lines, want 2", lines)
	}
}
