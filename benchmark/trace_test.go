package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

// at builds a time offset ms milliseconds from origin.
func at(origin time.Time, ms int) time.Time {
	return origin.Add(time.Duration(ms) * time.Millisecond)
}

func TestSelfTimeNesting(t *testing.T) {
	r := newRecorder()
	o := r.origin
	// request [0,100] ⊃ handler [10,90] ⊃ {call [20,50], call [60,80]}
	req := r.add("client.request", noSpan, 1, at(o, 0), at(o, 100))
	h := r.add("daemon.handler", req, 1, at(o, 10), at(o, 90))
	r.add("tenant.call", h, 1, at(o, 20), at(o, 50))
	r.add("tenant.call", h, 1, at(o, 60), at(o, 80))
	spans := r.snapshot()
	self := selfTimes(spans)
	want := []time.Duration{20, 30, 30, 20}
	for i, w := range want {
		if self[i] != w*time.Millisecond {
			t.Errorf("span %d (%s): self %v, want %v", i, spans[i].Name, self[i], w*time.Millisecond)
		}
	}
	if got := coveredFrac(spans); got != 0.8 {
		t.Errorf("coveredFrac = %v, want 0.8 (the root's own 20 of 100 ms are uncovered)", got)
	}
	for _, s := range spans {
		if s.Req != 1 {
			t.Errorf("span %s lost its request id: %d", s.Name, s.Req)
		}
	}
}

func TestSelfTimeNeverNegative(t *testing.T) {
	r := newRecorder()
	o := r.origin
	// Children that overlap each other, start before the parent and
	// outlast it: concurrent work and clock skew between goroutines.
	p := r.add("parent", noSpan, 7, at(o, 10), at(o, 50))
	r.add("early", p, 7, at(o, 0), at(o, 30))
	r.add("overlap", p, 7, at(o, 20), at(o, 45))
	r.add("late", p, 7, at(o, 40), at(o, 90))
	r.add("outside", p, 7, at(o, 95), at(o, 99))
	self := selfTimes(r.snapshot())
	if self[0] != 0 {
		t.Errorf("parent fully covered by clipped, merged children: self %v, want 0", self[0])
	}
	for i, s := range self {
		if s < 0 {
			t.Errorf("span %d: negative self time %v", i, s)
		}
	}
}

func TestBeginFinishAndJSONL(t *testing.T) {
	r := newRecorder()
	o := r.origin
	root := r.begin("pass", noSpan, 0, at(o, 0))
	child := r.begin("scenario.replay", root, 3, at(o, 5))
	r.finish(child, at(o, 25))
	r.finish(root, at(o, 40))
	var buf bytes.Buffer
	if err := writeJSONL(&buf, r.snapshot()); err != nil {
		t.Fatal(err)
	}
	type line struct {
		ID, Parent int
		Req        int64
		Name       string
		Start      int64 `json:"start_ns"`
		End        int64 `json:"end_ns"`
		Self       int64 `json:"self_ns"`
	}
	var lines []line
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var l line
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			t.Fatalf("bad line %q: %v", sc.Text(), err)
		}
		lines = append(lines, l)
	}
	if len(lines) != 2 {
		t.Fatalf("%d lines, want 2", len(lines))
	}
	if l := lines[0]; l.Name != "pass" || l.Parent != -1 || l.End != (40*time.Millisecond).Nanoseconds() || l.Self != (20*time.Millisecond).Nanoseconds() {
		t.Errorf("root line %+v", l)
	}
	if l := lines[1]; l.Parent != 0 || l.Req != 3 || l.Self != l.End-l.Start {
		t.Errorf("child line %+v", l)
	}
}

func TestOptTracerSpans(t *testing.T) {
	r := newRecorder()
	o := r.origin
	tr := &optTracer{rec: r, stamps: []time.Time{at(o, 3), at(o, 5), at(o, 9)}}
	tr.optimize(noSpan, 1, at(o, 0), at(o, 10))
	tr.stamps = append(tr.stamps, at(o, 12), at(o, 14))
	tr.epoch(noSpan, 2, at(o, 11), at(o, 20))
	var names []string
	for _, s := range r.snapshot() {
		names = append(names, s.Name)
	}
	want := []string{"session.optimize", "core.init", "core.step", "core.step", "core.final", "scenario.epoch", "epoch.pre", "core.step", "epoch.post"}
	if len(names) != len(want) {
		t.Fatalf("spans %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("spans %v, want %v", names, want)
		}
	}
	// The children tile their parent: nothing of an optimize call or an
	// epoch is unattributed.
	self := selfTimes(r.snapshot())
	if self[0] != 0 || self[5] != 0 {
		t.Errorf("parents' self times %v and %v, want 0", self[0], self[5])
	}
}
