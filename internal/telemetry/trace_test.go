package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"
	"time"
)

func sampleEvents() []Event {
	t0 := time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC)
	return []Event{
		{At: t0, AtHours: 0, Kind: EventProcessDown, Subject: "Control/0/control", Detail: "process:control"},
		{At: t0.Add(6 * time.Minute), AtHours: 0.1, Kind: EventQuorumLost, Subject: "Control/control"},
		{At: t0.Add(6 * time.Minute), AtHours: 0.1, Kind: EventCPDown, Subject: "cp", Modes: []string{"process:control"}},
		{At: t0.Add(12 * time.Minute), AtHours: 0.2, Kind: EventCPUp, Subject: "cp"},
	}
}

// decodeJSONL is the independent reader WriteJSONL is checked against: it
// parses a JSONL trace, skipping blank lines, and fails on the first
// malformed line, reporting its 1-based number.
func decodeJSONL(r io.Reader) ([]Event, error) {
	var out []Event
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		var e Event
		if err := json.Unmarshal([]byte(text), &e); err != nil {
			return nil, fmt.Errorf("telemetry: trace line %d: %w", line, err)
		}
		out = append(out, e)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("telemetry: trace read: %w", err)
	}
	return out, nil
}

func TestTraceJSONLRoundTrip(t *testing.T) {
	tr := NewTrace()
	want := sampleEvents()
	for _, e := range want {
		tr.Record(e)
	}
	if n := len(tr.Events()); n != len(want) {
		t.Fatalf("len = %d, want %d", n, len(want))
	}
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(buf.String(), "\n"); lines != len(want) {
		t.Errorf("JSONL lines = %d, want %d", lines, len(want))
	}
	got, err := decodeJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
}

func TestDecodeJSONLSkipsBlanksAndReportsLine(t *testing.T) {
	in := "\n" + `{"kind":"cp-up","subject":"cp"}` + "\n\n" + `{"kind":"cp-down"` + "\n"
	_, err := decodeJSONL(strings.NewReader(in))
	if err == nil {
		t.Fatal("truncated line decoded without error")
	}
	if !strings.Contains(err.Error(), "line 4") {
		t.Errorf("error %q does not name line 4", err)
	}

	ok, err := decodeJSONL(strings.NewReader("\n  \n" + `{"kind":"cp-up","subject":"cp"}` + "\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ok) != 1 || ok[0].Kind != EventCPUp {
		t.Errorf("decoded %+v, want one cp-up event", ok)
	}
}

func TestDecodeJSONLEmpty(t *testing.T) {
	got, err := decodeJSONL(strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("decoded %d events from empty input", len(got))
	}
}

// FuzzTraceDecode throws arbitrary bytes at the JSONL decoder and checks
// the invariant that any successfully decoded trace re-encodes and decodes
// to the same events (a full round trip from the parsed form).
func FuzzTraceDecode(f *testing.F) {
	var buf bytes.Buffer
	tr := NewTrace()
	for _, e := range sampleEvents() {
		tr.Record(e)
	}
	if err := tr.WriteJSONL(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	f.Add("")
	f.Add("{}\n{}\n")
	f.Add(`{"kind":"cp-down","modes":["a","b"]}` + "\n")
	f.Add("not json\n")
	f.Fuzz(func(t *testing.T, in string) {
		events, err := decodeJSONL(strings.NewReader(in))
		if err != nil {
			return // malformed input must error, not panic
		}
		tr := NewTrace()
		for _, e := range events {
			tr.Record(e)
		}
		var out bytes.Buffer
		if err := tr.WriteJSONL(&out); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		again, err := decodeJSONL(&out)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if len(again) != len(events) {
			t.Fatalf("round trip changed event count: %d -> %d", len(events), len(again))
		}
		for i := range events {
			if !reflect.DeepEqual(events[i], again[i]) {
				t.Fatalf("event %d changed: %+v -> %+v", i, events[i], again[i])
			}
		}
	})
}
