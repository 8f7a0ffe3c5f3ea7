package scenario

import (
	"context"
	"errors"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"fubar/internal/core"
	"fubar/internal/unit"
)

// TestStreamMatchesRun proves the streaming replay yields exactly the
// epochs the collected Run returns.
func TestStreamMatchesRun(t *testing.T) {
	topo, mat := ringInstance(t, 1200*unit.Kbps, 3, 11)
	sc := Diurnal(5, 6, 0.4, 0.15)
	ref, err := run(context.Background(), topo, mat, sc, Options{Core: coreOpts1()})
	if err != nil {
		t.Fatal(err)
	}
	var got []EpochResult
	for er, err := range stream(context.Background(), nil, topo, mat, sc, Options{Core: coreOpts1()}) {
		if err != nil {
			t.Fatalf("stream: %v", err)
		}
		got = append(got, er)
	}
	if len(got) != len(ref.Epochs) {
		t.Fatalf("stream yielded %d epochs, Run returned %d", len(got), len(ref.Epochs))
	}
	stream := &Result{Name: ref.Name, Seed: ref.Seed, Topology: ref.Topology, Epochs: got}
	if err := stream.Equivalent(ref); err != nil {
		t.Fatalf("streamed epochs vs collected Run: %v", err)
	}
}

// TestStreamCancel proves a cancelled context stops a replay
// mid-scenario: the epochs yielded before the cancel stand, and the
// stream ends with the context's error.
func TestStreamCancel(t *testing.T) {
	topo, mat := ringInstance(t, 1200*unit.Kbps, 3, 11)
	sc := Diurnal(5, 8, 0.4, 0.15)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var done int
	var final error
	for er, err := range stream(ctx, nil, topo, mat, sc, Options{Core: coreOpts1()}) {
		if err != nil {
			final = err
			continue
		}
		done++
		if er.Epoch == 2 {
			cancel()
		}
	}
	if done != 3 {
		t.Fatalf("cancelled after epoch 2 but %d epochs were yielded", done)
	}
	if !errors.Is(final, context.Canceled) {
		t.Fatalf("stream final error = %v, want context.Canceled", final)
	}
}

// TestStreamEarlyBreak proves a consumer can stop a replay by breaking
// out of the loop.
func TestStreamEarlyBreak(t *testing.T) {
	topo, mat := ringInstance(t, 1200*unit.Kbps, 3, 11)
	sc := Diurnal(5, 8, 0.4, 0.15)
	n := 0
	for _, err := range stream(context.Background(), nil, topo, mat, sc, Options{Core: coreOpts1()}) {
		if err != nil {
			t.Fatal(err)
		}
		n++
		if n == 2 {
			break
		}
	}
	if n != 2 {
		t.Fatalf("broke after 2 epochs but saw %d", n)
	}
}

// TestByNameUnknownEnumeratesNames proves the unknown-scenario error
// names every valid scenario.
func TestByNameUnknownEnumeratesNames(t *testing.T) {
	_, err := ByName("nope", 1, 10)
	if err == nil {
		t.Fatal("ByName(nope) succeeded")
	}
	names := Names()
	if len(names) == 0 {
		t.Fatal("Names() is empty")
	}
	if !sort.StringsAreSorted(names) {
		t.Fatalf("Names() not sorted: %v", names)
	}
	for _, want := range []string{"crisis", "diurnalstorm"} {
		if !slices.Contains(names, want) {
			t.Fatalf("Names() missing composite %q: %v", want, names)
		}
	}
	// The error enumerates every valid name, in the same stable sorted
	// order Names() reports.
	if !strings.Contains(err.Error(), strings.Join(names, ", ")) {
		t.Fatalf("error %q does not list names in sorted order %v", err, names)
	}
	for _, n := range names {
		if _, err := ByName(n, 1, 10); err != nil {
			t.Fatalf("ByName(%q): %v", n, err)
		}
	}
}

func coreOpts1() core.Options {
	return core.Options{Workers: 1}
}

// TestPlainReplayBudget proves Options.Budget bounds each epoch of a
// plain (non-closed-loop) replay: with an absurdly small budget every
// epoch publishes its best-so-far solution and records DeadlineMiss.
func TestPlainReplayBudget(t *testing.T) {
	topo, mat := ringInstance(t, 1200*unit.Kbps, 3, 11)
	sc := Diurnal(5, 3, 0.4, 0)
	res, err := run(context.Background(), topo, mat, sc, Options{Core: coreOpts1(), Budget: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	for _, er := range res.Epochs {
		if !er.DeadlineMiss || er.Stop != core.StopDeadline {
			t.Fatalf("epoch %d under 1ns budget: miss=%v stop=%v", er.Epoch, er.DeadlineMiss, er.Stop)
		}
	}
	// Without a budget the replay is unaffected and never records a miss.
	free, err := run(context.Background(), topo, mat, sc, Options{Core: coreOpts1()})
	if err != nil {
		t.Fatal(err)
	}
	for _, er := range free.Epochs {
		if er.DeadlineMiss {
			t.Fatalf("epoch %d recorded a miss with no budget", er.Epoch)
		}
	}
}
