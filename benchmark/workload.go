package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"fubar"
)

// sizes fixes how much work each workload's unit holds. The shipped
// values are tuned so a --seconds 20 run covers enough units for steady
// medians on a 2-core box (see README "Sizing findings"); the tests
// shrink everything so they finish in seconds.
type sizes struct {
	coldPreset   string        // scale preset of the cold workload
	heEpochs     int           // epochs per crisis timeline
	heSpike      float64       // the crisis's flash-crowd demand factor ...
	heArrivals   int           // ... and how many aggregates arrive with it
	ringEpochs   int           // epochs per soak timeline
	ringPeriod   int           // soak event period
	tenants      int           // daemon tenants
	replayEpochs int           // epochs per daemon replay request
	setups       int           // timed set-ups per run, at least (median reported)
	setupBudget  time.Duration // keep setting up, to 40x setups, while under this in total
	layerBudget  time.Duration // wall budget per direct-call layer metric
	layerCalls   int           // calls per direct-call layer metric
	benchSteps   int           // optimizer steps RunCandidateBench may take
}

var shippedSizes = sizes{
	coldPreset: "scale-s", heEpochs: 8, heSpike: 1.3, heArrivals: 3, ringEpochs: 500, ringPeriod: 5,
	tenants: 4, replayEpochs: 8, setups: 5, setupBudget: 400 * time.Millisecond,
	layerBudget: 150 * time.Millisecond, layerCalls: 200, benchSteps: 20,
}

// Fixed instance seeds. The topologies, and the base matrices of every
// workload that replays timelines, are part of the workload definition,
// like HE-31 itself: --seed draws the cold matrices and every event
// timeline. Drawing the topology or a replay's base matrix per seed
// moves epoch and optimize times by 5-7x between seeds, which no
// regression bound survives (README "Sizing").
const (
	coldTopologySeed = 1
	heMatrixSeed     = 5
	ringInstanceSeed = 1
	tenantSeedBase   = 1 // tenant t's matrix seed is tenantSeedBase+t
)

// subSeed derives the i-th independent seed of a run from --seed with
// the splitmix64 finalizer, so neighbouring --seed values share no
// inputs.
func subSeed(seed int64, i int) int64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(i+1)*0xD1B54A32D192ED03
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64((z ^ (z >> 31)) >> 1)
}

// env is what a workload's set-up gets.
type env struct {
	seed    int64
	sz      sizes
	workers int         // Workers of the sessions: 0 = sessionWorkers; verification passes set verifyWorkers
	rec     *recorder   // non-nil on the traced pass
	cal     *calibrator // non-nil on passes whose times are reported in reference units
}

// limit ends a pass: after d of wall time, or — when counts is set —
// after exactly counts[lane] operations per lane, which is how the
// traced pass repeats the untraced pass's work.
type limit struct {
	d      time.Duration
	counts []int
}

// done reports whether lane has finished after n operations.
func (l limit) done(lane, n int, start time.Time) bool {
	if l.counts != nil {
		return n >= l.counts[lane]
	}
	return time.Since(start) >= l.d
}

// pass is what one measured pass over a workload produced.
type pass struct {
	wall      time.Duration
	laneOps   []int     // operations completed per lane
	latMs     []float64 // one latency per operation
	utilities []float64 // one utility per operation
	results   []string  // canonical per-operation results, wall-clock fields removed
	// unitResults are the results of the first unit — the first cold
	// instance, the first timeline, the first round of every tenant —
	// which any run completes: what the result digest covers, so runs
	// of different lengths on one seed still agree.
	unitResults []string
	// units holds one short digest per completed unit, in order, per
	// stream of operations whose results the seed alone decides: the
	// one caller's cold runs or whole timelines, each daemon tenant's
	// rounds. Two runs of one seed must agree on every unit both
	// completed, however long each ran (firstUnitDiff).
	units     map[string]string
	records   []fubar.EpochRecord // epoch records seen (the daemon keeps the first 64)
	attempted int                 // operations (requests, for the daemon) attempted
	failed    int                 // of those, how many failed a check
	problems  []string            // first few failure descriptions

	// Counts the per-layer metrics divide by.
	epochs       int
	steps        int
	candidates   int64
	wireFlowMods int
	optimizeWall time.Duration        // time inside the optimizer as the records report it
	unitWall     time.Duration        // wall time of the first unit (what verify re-runs)
	kinds        map[string][]float64 // daemon: latencies per request kind
}

func (p *pass) ops() int {
	n := 0
	for _, c := range p.laneOps {
		n += c
	}
	return n
}

// merge pools another pass over the same operations into p: samples
// and counts add up, the canonical results stay p's own.
func (p *pass) merge(o *pass) {
	p.wall += o.wall
	p.latMs = append(p.latMs, o.latMs...)
	p.utilities = append(p.utilities, o.utilities...)
	p.attempted += o.attempted
	p.failed += o.failed
	p.problems = append(p.problems, o.problems...)
	p.epochs += o.epochs
	p.steps += o.steps
	p.candidates += o.candidates
	p.wireFlowMods += o.wireFlowMods
	p.optimizeWall += o.optimizeWall
	if len(p.laneOps) == 0 {
		p.laneOps = make([]int, len(o.laneOps))
	}
	for lane, n := range o.laneOps {
		p.laneOps[lane] += n
	}
	if p.records == nil {
		p.records = o.records
	}
	for k, v := range o.kinds {
		p.kind(k, v...)
	}
}

// fail counts one failed operation and keeps the first few reasons.
func (p *pass) fail(format string, args ...any) {
	p.failed++
	if len(p.problems) < 8 {
		p.problems = append(p.problems, fmt.Sprintf(format, args...))
	}
}

// kind files latencies under a request kind.
func (p *pass) kind(name string, v ...float64) {
	if p.kinds == nil {
		p.kinds = make(map[string][]float64)
	}
	p.kinds[name] = append(p.kinds[name], v...)
}

// unit files the results of stream's next completed unit.
func (p *pass) unit(stream string, results ...string) {
	if p.units == nil {
		p.units = make(map[string]string)
	}
	p.units[stream] += digest(results)[:unitDigestLen]
}

// unitDigestLen is how many hex digits of its digest a unit keeps.
const unitDigestLen = 8

// firstUnitDiff compares two runs of one workload and seed over the
// units both completed and names the first that differs.
func firstUnitDiff(a, b map[string]string) (stream string, unit int, differ bool) {
	streams := make([]string, 0, len(a))
	for st := range a {
		streams = append(streams, st)
	}
	sort.Strings(streams)
	for _, st := range streams {
		da, db := a[st], b[st]
		n := min(len(da), len(db))
		for i := 0; i < n; i += unitDigestLen {
			if da[i:i+unitDigestLen] != db[i:i+unitDigestLen] {
				return st, i / unitDigestLen, true
			}
		}
	}
	return "", 0, false
}

// digest hashes canonical results.
func digest(results []string) string {
	h := sha256.New()
	for _, r := range results {
		h.Write([]byte(r))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// instance is a workload after set-up: everything before the clock
// starts is built.
type instance interface {
	// run executes operations until lim is reached.
	run(ctx context.Context, lim limit) (*pass, error)
	// verify checks a finished pass against an independent re-run of its
	// first unit (the other worker count, fresh state) and any ledger the
	// workload keeps; failures are counted on p. It returns the re-run's
	// wall time, to set against p.unitWall.
	verify(ctx context.Context, p *pass) (time.Duration, error)
	// layerInputs is the instance the direct-call layer metrics run on.
	layerInputs() (*fubar.Topology, *fubar.Matrix)
	close() error
}

// workload is one entry of BENCHMARK.json's workloads list.
type workload struct {
	name  string
	setup func(e env) (instance, error)
}

var workloads = []workload{coldWorkload, heWorkload, ringWorkload, daemonWorkload}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// Every session the workloads time runs at Workers=1, the daemon's
// default tenant budget. This sandbox's two virtual CPUs deliver
// between one and two hardware threads' worth of work from one minute
// to the next, and a two-worker optimization — a barrier every few
// milliseconds — follows that, not the program: the same
// replay-he-crisis seed ran at 3.8 and at 8.6 epochs/s an hour apart
// while the single-threaded workloads moved by a tenth (README
// "Sizing findings"). What the second worker buys is a per-layer
// metric, core.workers1_ratio, from the verification re-run of every
// run's first unit at verifyWorkers, which must also reproduce its
// results bit for bit.
const (
	sessionWorkers = 1
	verifyWorkers  = 2
)

// workersSetting resolves the Workers setting of e's sessions.
func (e env) workersSetting() int {
	if e.workers > 0 {
		return e.workers
	}
	return sessionWorkers
}

// warmHeap runs one untimed small optimization so the first timed
// set-up does not pay for growing the heap from nothing.
func warmHeap(ctx context.Context) error {
	topo, mat, err := fubar.ScaleInstance("scale-xs", 1)
	if err != nil {
		return err
	}
	s, err := fubar.NewSession(topo, mat)
	if err != nil {
		return err
	}
	_, err = s.Optimize(ctx)
	return err
}

// timedSetups sets the workload up at least sz.setups times — more, up
// to forty times as often, while all of them together took under
// sz.setupBudget, so that a millisecond set-up is a median of hundreds —
// tearing each down but the last, and returns the last instance with
// the median set-up time.
func timedSetups(w workload, e env) (instance, float64, error) {
	n := e.sz.setups
	var times []float64
	var inst instance
	begin := time.Now()
	for i := 0; i < n || (i < 40*n && time.Since(begin) < e.sz.setupBudget); i++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return nil, 0, err
			}
		}
		start := time.Now()
		var err error
		inst, err = w.setup(e)
		if err != nil {
			return nil, 0, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		times = append(times, time.Since(start).Seconds())
		e.calibrate(noSpan)
	}
	return inst, median(times), nil
}

// optTracer turns the optimizer's observer callbacks into spans. The
// observer runs on the goroutine driving the session, so stamps needs
// no lock; one optTracer serves one session.
type optTracer struct {
	rec    *recorder
	stamps []time.Time
}

func (t *optTracer) observe(fubar.Snapshot) { t.stamps = append(t.stamps, time.Now()) }

// flush records [start,end] as a span named outer and tiles it with the
// stamps taken inside it: head up to the first snapshot, a core.step
// between successive snapshots, tail after the last.
func (t *optTracer) flush(outer, head, tail string, parent spanID, req int64, start, end time.Time) {
	id := t.rec.add(outer, parent, req, start, end)
	if n := len(t.stamps); n > 0 {
		t.rec.add(head, id, req, start, t.stamps[0])
		for i := 1; i < n; i++ {
			t.rec.add("core.step", id, req, t.stamps[i-1], t.stamps[i])
		}
		t.rec.add(tail, id, req, t.stamps[n-1], end)
	}
	t.stamps = t.stamps[:0]
}

// optimize records one optimizer call [start,end] as
// session.optimize ⊃ {core.init, core.step×n, core.final}.
func (t *optTracer) optimize(parent spanID, req int64, start, end time.Time) {
	t.flush("session.optimize", "core.init", "core.final", parent, req, start, end)
}

// epoch records one replay epoch [resume,yield] as
// scenario.epoch ⊃ {epoch.pre, core.step×n, epoch.post}. From outside,
// the optimizer's own initialisation cannot be told from the epoch's
// other preparation: both are inside epoch.pre.
func (t *optTracer) epoch(parent spanID, req int64, resume, yield time.Time) {
	t.flush("scenario.epoch", "epoch.pre", "epoch.post", parent, req, resume, yield)
}

// checkUtility is the invariant every reported utility must satisfy.
func checkUtility(u float64) bool {
	return !math.IsNaN(u) && u > 0 && u <= 1+1e-9
}

// heapCounters is the process's cumulative heap allocation count and
// volume.
func heapCounters() (mallocs, bytes uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs, ms.TotalAlloc
}
