package hidap_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/circuits"
	"repro/hidap"
	"repro/internal/core"
	"repro/internal/flows"
)

// loadSpecA/B are tiny suite-shaped circuits for engine tests: small enough
// for low-effort runs, structured enough that every flow has real work.
func loadSpecA() circuits.Spec {
	return circuits.Spec{
		Name: "engA", Cells: 300_000, Macros: 8, Subsystems: 2,
		BusWidth: 32, PipelineDepth: 2, Scale: 300, Seed: 5,
	}
}

func loadSpecB() circuits.Spec {
	return circuits.Spec{
		Name: "engB", Cells: 250_000, Macros: 6, Subsystems: 2,
		BusWidth: 32, PipelineDepth: 2, Scale: 300, Seed: 9,
	}
}

func fastCfg(seed int64) *hidap.Config {
	return hidap.NewConfig(hidap.WithEffort(hidap.EffortLow), hidap.WithSeed(seed))
}

// TestEngineConcurrentLoad floods one engine with mixed concurrent jobs —
// repeated designs, all three flows, several seeds — and checks that every
// job completes with a correct Report, that identical jobs stay
// deterministic under concurrency, and that the caches were actually shared
// (run under -race in CI to prove the sharing is race-free).
func TestEngineConcurrentLoad(t *testing.T) {
	gA := circuits.Generate(loadSpecA())
	gB := circuits.Generate(loadSpecB())

	eng := hidap.NewEngine(fastCfg(1), hidap.EngineOptions{Workers: 8})
	defer eng.Close()

	ctx := context.Background()
	var tickets []*hidap.Ticket
	submit := func(job hidap.Job) {
		t.Helper()
		tk, err := eng.Submit(ctx, job)
		if err != nil {
			t.Fatalf("Submit(%q): %v", job.Label, err)
		}
		tickets = append(tickets, tk)
	}

	// 10 design jobs over two distinct designs (so the design cache must
	// dedup), mixed placers and seeds, including two identical jobs whose
	// results must match bit for bit.
	for i := 0; i < 5; i++ {
		submit(hidap.Job{
			Design: gA.Design, Placer: "hidap", Evaluate: true,
			Config: fastCfg(int64(i % 3)), Label: fmt.Sprintf("dA-hidap-%d", i%3),
		})
	}
	for i := 0; i < 3; i++ {
		submit(hidap.Job{
			Design: gB.Design, Placer: "hidap", Evaluate: true,
			Config: fastCfg(2), Label: "dB-hidap",
		})
	}
	submit(hidap.Job{Design: gA.Design, Placer: "indeda", Evaluate: true, Config: fastCfg(1), Label: "dA-indeda"})
	submit(hidap.Job{Design: gB.Design, Placer: "indeda", Evaluate: true, Config: fastCfg(1), Label: "dB-indeda"})

	// 6 circuit jobs: two specs × three flows through the full pipeline.
	for _, spec := range []circuits.Spec{loadSpecA(), loadSpecB()} {
		for _, f := range []hidap.Flow{hidap.FlowIndEDA, hidap.FlowHiDaP, hidap.FlowHandFP} {
			spec := spec
			submit(hidap.Job{
				Circuit: &spec, Placer: f.Name(), Config: fastCfg(1),
				Label: fmt.Sprintf("%s/%s", spec.Name, f),
			})
		}
	}
	if len(tickets) < 16 {
		t.Fatalf("load test submitted %d jobs, want >= 16", len(tickets))
	}

	wlByLabel := map[string][]float64{}
	for _, tk := range tickets {
		res, err := tk.Wait(ctx)
		if err != nil {
			t.Fatalf("job %q: %v", tk.Label(), err)
		}
		if tk.State() != hidap.JobDone {
			t.Errorf("job %q state = %q, want done", tk.Label(), tk.State())
		}
		if res.Report == nil || res.Report.WirelengthM <= 0 {
			t.Errorf("job %q: bad report %+v", tk.Label(), res.Report)
		}
		if res.Report.Label != tk.Label() {
			t.Errorf("job %q: report label %q", tk.Label(), res.Report.Label)
		}
		if res.Placement == nil || !res.Placement.AllMacrosPlaced() {
			t.Errorf("job %q: macros unplaced", tk.Label())
		}
		wlByLabel[tk.Label()] = append(wlByLabel[tk.Label()], res.Report.WirelengthM)
	}
	// Identical jobs (same design, placer, seed) must agree exactly even
	// when raced against the rest of the load.
	for label, wls := range wlByLabel {
		for _, wl := range wls[1:] {
			if wl != wls[0] {
				t.Errorf("job %q nondeterministic under load: %v", label, wls)
			}
		}
	}

	st := eng.Stats()
	if st.CachedDesigns != 2 {
		t.Errorf("cached designs = %d, want 2 (content-hash dedup)", st.CachedDesigns)
	}
	if st.CachedCircuits != 2 {
		t.Errorf("cached circuits = %d, want 2", st.CachedCircuits)
	}
	if st.Completed != uint64(len(tickets)) {
		t.Errorf("completed = %d, want %d", st.Completed, len(tickets))
	}
}

// TestEngineWarmCacheAllocs submits the same design twice to a single-worker
// engine and requires the second job to allocate measurably less: the warm
// path skips seqgraph construction and reuses pooled annealing scratch.
func TestEngineWarmCacheAllocs(t *testing.T) {
	g := circuits.Generate(circuits.Spec{
		Name: "warm", Cells: 400_000, Macros: 6, Subsystems: 2,
		BusWidth: 48, PipelineDepth: 2, Scale: 100, Seed: 3,
	})
	eng := hidap.NewEngine(fastCfg(1), hidap.EngineOptions{Workers: 1})
	defer eng.Close()

	job := hidap.Job{Design: g.Design, Key: "warm", Placer: "hidap", Config: fastCfg(1)}
	// Run executes on this goroutine, so ReadMemStats brackets exactly the
	// job's own allocations — no racing worker to under- or over-count.
	mallocs := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := eng.Run(context.Background(), job); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	cold := mallocs()
	warm := mallocs()
	t.Logf("cold job: %d mallocs, warm job: %d mallocs (%.1f%%)",
		cold, warm, 100*float64(warm)/float64(cold))
	if warm >= cold {
		t.Errorf("warm job allocated %d >= cold %d: cache not warm", warm, cold)
	}
	if float64(warm) > 0.9*float64(cold) {
		t.Errorf("warm job allocated %d vs cold %d: saving < 10%%, not measurable", warm, cold)
	}
}

// BenchmarkEngineSameDesign contrasts the cold path (fresh engine per job)
// with the warm path (one long-lived engine): allocs/op is the headline.
func BenchmarkEngineSameDesign(b *testing.B) {
	g := circuits.Generate(circuits.Spec{
		Name: "warmb", Cells: 400_000, Macros: 6, Subsystems: 2,
		BusWidth: 48, PipelineDepth: 2, Scale: 100, Seed: 3,
	})
	job := hidap.Job{Design: g.Design, Key: "warmb", Placer: "hidap", Config: fastCfg(1)}
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			eng := hidap.NewEngine(fastCfg(1), hidap.EngineOptions{Workers: 1})
			if _, err := eng.Run(context.Background(), job); err != nil {
				b.Fatal(err)
			}
			eng.Close()
		}
	})
	b.Run("warm", func(b *testing.B) {
		eng := hidap.NewEngine(fastCfg(1), hidap.EngineOptions{Workers: 1})
		defer eng.Close()
		if _, err := eng.Run(context.Background(), job); err != nil {
			b.Fatal(err) // prime the caches outside the timed loop
		}
		b.ResetTimer()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := eng.Run(context.Background(), job); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// blocker holds hidap jobs at their first progress event, through the
// public WithProgress hook: each job's callback signals started once and
// then waits until release is closed. A test cancels a held job and then
// releases it, and the job returns context.Canceled; a held job that is
// released without a cancel places to the end.
type blocker struct {
	started chan struct{}
	release chan struct{}
	// free closes release; later calls do nothing.
	free func()
}

func newBlocker() *blocker {
	b := &blocker{started: make(chan struct{}, 4), release: make(chan struct{})}
	b.free = sync.OnceFunc(func() { close(b.release) })
	return b
}

// job returns a fresh hidap job on d that b holds once it starts placing.
func (b *blocker) job(d *hidap.Design) hidap.Job {
	var once sync.Once
	hold := func(hidap.Progress) {
		once.Do(func() { b.started <- struct{}{} })
		<-b.release
	}
	cfg := hidap.NewConfig(hidap.WithEffort(hidap.EffortLow), hidap.WithSeed(1), hidap.WithProgress(hold))
	return hidap.Job{Design: d, Placer: "hidap", Config: cfg}
}

func TestEngineCancelAndQueueFull(t *testing.T) {
	g := circuits.ABCDX()
	b := newBlocker()

	eng := hidap.NewEngine(nil, hidap.EngineOptions{Workers: 1, MaxPending: 1})
	defer eng.Close()
	defer b.free() // so a failed check cannot leave Close waiting
	ctx := context.Background()
	// A dropped job must finish at once; waits on one give up after this.
	soon, cancelSoon := context.WithTimeout(ctx, 10*time.Second)
	defer cancelSoon()

	running, err := eng.Submit(ctx, b.job(g.Design))
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-b.started:
	case <-time.After(10 * time.Second):
		t.Fatal("blocking job never started")
	}
	if running.State() != hidap.JobRunning {
		t.Errorf("state = %q, want running", running.State())
	}

	queued, err := eng.Submit(ctx, b.job(g.Design))
	if err != nil {
		t.Fatal(err)
	}
	if queued.State() != hidap.JobQueued {
		t.Errorf("state = %q, want queued", queued.State())
	}
	if _, err := eng.Submit(ctx, b.job(g.Design)); !errors.Is(err, hidap.ErrQueueFull) {
		t.Errorf("third submit err = %v, want ErrQueueFull", err)
	}

	// Cancel the queued job: its MaxPending place must free at once,
	// without the job ever running.
	queued.Cancel()
	if _, err := queued.Wait(soon); !errors.Is(err, context.Canceled) {
		t.Fatalf("queued cancel err = %v, want context.Canceled", err)
	}
	if q := eng.Stats().Queued; q != 0 {
		t.Errorf("queued = %d after Cancel, want 0", q)
	}

	// Cancel a queued job's parent context instead: the same must hold, and
	// the running job must not notice.
	parent, cancelParent := context.WithCancel(ctx)
	orphan, err := eng.Submit(parent, b.job(g.Design))
	if err != nil {
		t.Fatal(err)
	}
	cancelParent()
	if _, err := orphan.Wait(soon); !errors.Is(err, context.Canceled) {
		t.Fatalf("queued job of a cancelled parent: err = %v, want context.Canceled", err)
	}
	if q := eng.Stats().Queued; q != 0 {
		t.Errorf("queued = %d after the parent context ended, want 0", q)
	}
	if running.State() != hidap.JobRunning {
		t.Errorf("running job state = %q after another job's parent ended, want running", running.State())
	}

	refill, err := eng.Submit(ctx, b.job(g.Design))
	if err != nil {
		t.Fatalf("submit after cancelling queued jobs: %v (place not freed)", err)
	}
	refill.Cancel()
	running.Cancel()
	b.free()
	for _, tk := range []*hidap.Ticket{running, queued, orphan, refill} {
		if _, err := tk.Wait(ctx); !errors.Is(err, context.Canceled) {
			t.Errorf("err = %v, want context.Canceled", err)
		}
		if tk.State() != hidap.JobCanceled {
			t.Errorf("state = %q, want canceled", tk.State())
		}
	}
	if len(b.started) != 0 {
		t.Errorf("%d cancelled queued jobs ran", len(b.started))
	}
	if st := eng.Stats(); st.Completed != 4 || st.Canceled != 4 || st.Queued != 0 || st.Running != 0 {
		t.Errorf("stats = %+v, want 4 cancelled completions and nothing left", st)
	}
}

// TestEngineCloseWaitsForRun: Close's drain contract covers jobs executing
// inline through Run on the caller's goroutine, not only slot jobs.
func TestEngineCloseWaitsForRun(t *testing.T) {
	g := circuits.ABCDX()
	eng := hidap.NewEngine(nil, hidap.EngineOptions{Workers: 1})
	b := newBlocker()
	defer b.free()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runDone := make(chan struct{})
	var runErr error
	go func() {
		defer close(runDone)
		_, runErr = eng.Run(ctx, b.job(g.Design))
	}()
	select {
	case <-b.started:
	case <-time.After(10 * time.Second):
		t.Fatal("inline run never started")
	}

	closeDone := make(chan struct{})
	go func() { eng.Close(); close(closeDone) }()
	select {
	case <-closeDone:
		t.Fatal("Close returned while an inline Run was still executing")
	case <-time.After(100 * time.Millisecond):
	}
	cancel() // cancel and release the held job; Close must now complete
	b.free()
	select {
	case <-closeDone:
	case <-time.After(10 * time.Second):
		t.Fatal("Close never finished after the inline run ended")
	}
	<-runDone
	if !errors.Is(runErr, context.Canceled) {
		t.Errorf("inline run err = %v, want context.Canceled", runErr)
	}
}

// TestEngineLambdaPin: Job.Lambdas overrides the circuit pipeline's λ sweep.
func TestEngineLambdaPin(t *testing.T) {
	eng := hidap.NewEngine(fastCfg(1), hidap.EngineOptions{Workers: 1})
	defer eng.Close()
	spec := loadSpecA()
	tk, err := eng.Submit(context.Background(), hidap.Job{
		Circuit: &spec, Placer: "hidap", Lambdas: []float64{0.8}, Config: fastCfg(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := tk.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Lambda != 0.8 {
		t.Errorf("lambda = %v, want pinned 0.8", res.Metrics.Lambda)
	}
}

// TestDesignJobSweepsLikeCircuitJob: an evaluating design job reads
// Job.Lambdas like a circuit job. Sweeping the paper's three λ on a
// generated circuit's design picks the circuit job's λ, places every macro
// alike and reports the same, and so does flows.Run on that circuit.
func TestDesignJobSweepsLikeCircuitJob(t *testing.T) {
	eng := hidap.NewEngine(fastCfg(1), hidap.EngineOptions{Workers: 1})
	defer eng.Close()
	ctx := context.Background()
	spec := loadSpecA()
	g := circuits.Generate(spec)
	sweep := []float64{0.2, 0.5, 0.8}
	ckt, err := eng.Run(ctx, hidap.Job{Circuit: &spec, Config: fastCfg(1)})
	if err != nil {
		t.Fatal(err)
	}
	des, err := eng.Run(ctx, hidap.Job{Design: g.Design, Evaluate: true, Lambdas: sweep, Config: fastCfg(1)})
	if err != nil {
		t.Fatal(err)
	}
	opt := flows.DefaultOptions()
	opt.Knobs = fastCfg(1).Knobs
	row, pl, err := flows.Run(ctx, g, flows.FlowHiDaP, opt)
	if err != nil {
		t.Fatal(err)
	}
	if ckt.Stats.Lambda != des.Stats.Lambda || row.Lambda != des.Stats.Lambda {
		t.Errorf("λ: circuit job %v, design job %v, flows.Run %v", ckt.Stats.Lambda, des.Stats.Lambda, row.Lambda)
	}
	sameMacros(t, g.Design, ckt.Placement, des.Placement)
	sameMacros(t, g.Design, pl, des.Placement)
	sameReport(t, ckt.Report, des.Report)
	sameReport(t, &row.Report, des.Report)
}

func TestEngineCloseDrainsAndRejects(t *testing.T) {
	g := circuits.ABCDX()
	eng := hidap.NewEngine(fastCfg(1), hidap.EngineOptions{Workers: 2})
	ctx := context.Background()
	var tickets []*hidap.Ticket
	for i := 0; i < 4; i++ {
		tk, err := eng.Submit(ctx, hidap.Job{Design: g.Design, Placer: "indeda", Config: fastCfg(int64(i))})
		if err != nil {
			t.Fatal(err)
		}
		tickets = append(tickets, tk)
	}
	eng.Close() // must drain all four accepted jobs
	for i, tk := range tickets {
		res, err := tk.Result()
		if err != nil {
			t.Errorf("job %d after Close: %v", i, err)
			continue
		}
		if res.Placement == nil || !res.Placement.AllMacrosPlaced() {
			t.Errorf("job %d: incomplete placement after drain", i)
		}
	}
	if _, err := eng.Submit(ctx, hidap.Job{Design: g.Design}); !errors.Is(err, hidap.ErrEngineClosed) {
		t.Errorf("submit after close err = %v, want ErrEngineClosed", err)
	}
	if _, err := eng.Run(ctx, hidap.Job{Design: g.Design}); !errors.Is(err, hidap.ErrEngineClosed) {
		t.Errorf("run after close err = %v, want ErrEngineClosed", err)
	}
	eng.Close() // idempotent
}

func TestEngineSubmitBatch(t *testing.T) {
	eng := hidap.NewEngine(fastCfg(1), hidap.EngineOptions{Workers: 4})
	defer eng.Close()
	batch, err := eng.SubmitBatch(context.Background(), hidap.Suite{
		Circuits: []circuits.Spec{loadSpecA(), loadSpecB()},
		Config:   fastCfg(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(batch.Tickets) != 6 {
		t.Fatalf("tickets = %d, want 2 circuits x 3 flows", len(batch.Tickets))
	}
	res, err := batch.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 || len(res.Summaries) != 3 {
		t.Fatalf("rows = %d, summaries = %d", len(res.Rows), len(res.Summaries))
	}
	for _, r := range res.Rows {
		if r.WLnorm <= 0 {
			t.Errorf("%s/%s: WLnorm = %v after Normalize", r.Circuit, r.Flow, r.WLnorm)
		}
		if r.Flow == hidap.FlowHandFP && r.WLnorm != 1 {
			t.Errorf("%s handFP norm = %v, want 1", r.Circuit, r.WLnorm)
		}
	}
	for _, s := range res.Summaries {
		if s.WLGeoMean <= 0 {
			t.Errorf("%s: geomean = %v", s.Flow, s.WLGeoMean)
		}
	}
}

// TestEnginePanicIsolated: a job that panics (here its progress callback;
// a degenerate design tripping an internal invariant fails the same way)
// must fail alone — the worker, the engine and later jobs survive.
func TestEnginePanicIsolated(t *testing.T) {
	g := circuits.ABCDX()
	eng := hidap.NewEngine(fastCfg(1), hidap.EngineOptions{Workers: 1})
	defer eng.Close()
	ctx := context.Background()

	boom := hidap.NewConfig(hidap.WithEffort(hidap.EffortLow), hidap.WithSeed(1),
		hidap.WithProgress(func(hidap.Progress) { panic("boom") }))
	tk, err := eng.Submit(ctx, hidap.Job{Label: "boom-job", Design: g.Design, Placer: "hidap", Config: boom})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tk.Wait(ctx); err == nil || !strings.Contains(err.Error(), "panicked: boom") {
		t.Fatalf("err = %v, want panic converted to error", err)
	} else if !strings.Contains(err.Error(), `"boom-job"`) {
		t.Errorf("err = %v, want it to name the job", err)
	}
	if tk.State() != hidap.JobFailed {
		t.Errorf("state = %q, want failed", tk.State())
	}
	// The engine keeps serving.
	tk2, err := eng.Submit(ctx, hidap.Job{Design: g.Design, Placer: "indeda", Config: fastCfg(1)})
	if err != nil {
		t.Fatal(err)
	}
	if res, err := tk2.Wait(ctx); err != nil || !res.Placement.AllMacrosPlaced() {
		t.Fatalf("job after panic: %v", err)
	}
}

// TestEngineBatchBypassesMaxPending: a batch is one deliberate bulk
// operation — it must be accepted whole even when it exceeds the
// request-endpoint queue bound, and an expired wait context must not
// cancel it.
func TestEngineBatchBypassesMaxPending(t *testing.T) {
	eng := hidap.NewEngine(fastCfg(1), hidap.EngineOptions{Workers: 1, MaxPending: 1})
	defer eng.Close()
	batch, err := eng.SubmitBatch(context.Background(), hidap.Suite{
		Circuits: []circuits.Spec{loadSpecA()},
		Config:   fastCfg(1),
	})
	if err != nil {
		t.Fatalf("batch larger than MaxPending rejected: %v", err)
	}
	if len(batch.Tickets) != 3 {
		t.Fatalf("tickets = %d, want 3", len(batch.Tickets))
	}
	// An expired wait returns its own error and leaves the batch running.
	expired, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	if _, err := batch.Wait(expired); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired wait err = %v", err)
	}
	res, err := batch.Wait(context.Background())
	if err != nil {
		t.Fatalf("re-Wait after expired wait: %v (batch must not be cancelled)", err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(res.Rows))
	}
}

// TestEngineBatchMultiSeed: with several seeds, every row must be
// normalized against its own seed's handFP reference — each handFP row is
// exactly 1.0, never a cross-seed ratio.
func TestEngineBatchMultiSeed(t *testing.T) {
	eng := hidap.NewEngine(fastCfg(1), hidap.EngineOptions{Workers: 4})
	defer eng.Close()
	batch, err := eng.SubmitBatch(context.Background(), hidap.Suite{
		Circuits: []circuits.Spec{loadSpecA()},
		Flows:    []hidap.Flow{hidap.FlowHiDaP, hidap.FlowHandFP},
		Seeds:    []int64{1, 2},
		Config:   fastCfg(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := batch.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d, want 1 circuit x 2 flows x 2 seeds", len(res.Rows))
	}
	for _, r := range res.Rows {
		if r.Flow == hidap.FlowHandFP && r.WLnorm != 1 {
			t.Errorf("handFP row %q: WLnorm = %v, want exactly 1 per seed group", r.Label, r.WLnorm)
		}
		if r.WLnorm <= 0 {
			t.Errorf("row %q: WLnorm = %v", r.Label, r.WLnorm)
		}
	}
}

// TestEngineJobValidation: a job the engine cannot or should not run is
// refused at submit, before a worker builds anything for it.
func TestEngineJobValidation(t *testing.T) {
	eng := hidap.NewEngine(nil, hidap.EngineOptions{Workers: 1})
	defer eng.Close()
	g := circuits.ABCDX()
	spec := loadSpecA()
	circuit := func(edit func(*circuits.Spec)) hidap.Job {
		s := loadSpecA()
		edit(&s)
		return hidap.Job{Circuit: &s}
	}
	for name, job := range map[string]hidap.Job{
		"empty":                  {},
		"design and circuit":     {Design: g.Design, Circuit: &spec},
		"unknown placer":         {Design: g.Design, Placer: "no-such-placer"},
		"circuit unknown placer": {Circuit: &spec, Placer: "bogus"},
		"no macros":              {Circuit: &circuits.Spec{Name: "empty"}},
		"too many macros":        circuit(func(s *circuits.Spec) { s.Macros = 1 << 20 }),
		"too many cells":         circuit(func(s *circuits.Spec) { s.Cells, s.Scale = 1<<40, 1 }),
		"too many subsystems": circuit(func(s *circuits.Spec) {
			s.Macros, s.Subsystems = 1000, 1000
		}),
		"subsystem without a macro": circuit(func(s *circuits.Spec) { s.Subsystems = s.Macros + 1 }),
		"bus too wide":              circuit(func(s *circuits.Spec) { s.BusWidth = 1 << 24 }),
		"pipeline too deep":         circuit(func(s *circuits.Spec) { s.PipelineDepth = 1 << 20 }),
		"utilization above 1":       circuit(func(s *circuits.Spec) { s.Utilization = 1.5 }),
		"utilization NaN":           circuit(func(s *circuits.Spec) { s.Utilization = math.NaN() }),
	} {
		if _, err := eng.Submit(context.Background(), job); err == nil {
			t.Errorf("%s: submit accepted the job", name)
		} else if job.Placer != "" && !strings.Contains(err.Error(), job.Placer) {
			t.Errorf("%s: error should name the unknown placer: %v", name, err)
		}
		if _, err := eng.Run(context.Background(), job); err == nil {
			t.Errorf("%s: Run ran the job", name)
		}
	}
	// A suite with a flow outside the three is refused whole, before any of
	// its circuits is cached or any of its jobs runs.
	if _, err := eng.SubmitBatch(context.Background(), hidap.Suite{
		Circuits: []circuits.Spec{spec},
		Flows:    []hidap.Flow{hidap.FlowHiDaP, "bogus"},
	}); err == nil {
		t.Error("SubmitBatch accepted a suite with an unknown flow")
	}
	if st := eng.Stats(); st.Completed != 0 || st.CachedCircuits != 0 {
		t.Errorf("refused jobs left work behind: %+v", st)
	}
}

// TestEngineConcurrentMultiStart starts several identical engine jobs at
// once on a shared cached design (shared Gseq, hierarchy tree and
// bipartite graph) with their solve DAGs fanned out WithParallelism(2).
// Every result must be identical, and identical to a direct flows.Place
// call on fresh artifacts with the same knobs: placement is deterministic
// regardless of worker scheduling, and the engine's warm path places like
// the cold one. Run under -race in CI, this also proves the scheduler
// fan-out and the shared artifacts are race-free.
func TestEngineConcurrentMultiStart(t *testing.T) {
	g := circuits.Generate(loadSpecA())
	eng := hidap.NewEngine(nil, hidap.EngineOptions{Workers: 4})
	defer eng.Close()

	cfg := hidap.NewConfig(
		hidap.WithEffort(hidap.EffortLow),
		hidap.WithSeed(7),
		hidap.WithParallelism(2),
	)
	const jobs = 6
	var tickets []*hidap.Ticket
	for i := 0; i < jobs; i++ {
		tk, err := eng.Submit(context.Background(), hidap.Job{
			Design: g.Design, Placer: "hidap", Config: cfg,
			Label: fmt.Sprintf("ms-%d", i),
		})
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		tickets = append(tickets, tk)
	}
	key := func(pl *hidap.Placement) string {
		var sb strings.Builder
		for _, m := range g.Design.Macros() {
			fmt.Fprintf(&sb, "%v/%v;", pl.Rect(m), pl.Orient[m])
		}
		return sb.String()
	}
	direct, _, err := flows.Place(context.Background(), core.NewArtifacts(g.Design, nil), flows.FlowHiDaP, nil,
		flows.Options{Knobs: cfg.Knobs}, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := key(direct)
	for i, tk := range tickets {
		res, err := tk.Wait(context.Background())
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		if key(res.Placement) != want {
			t.Fatalf("job %d placement differs from the direct flows.Place call", i)
		}
	}
	st := eng.Stats()
	if st.DesignCacheHits < jobs-1 {
		t.Errorf("design cache hits = %d, want >= %d (jobs must share one cached design)", st.DesignCacheHits, jobs-1)
	}
	if st.Completed != jobs || st.Failed != 0 || st.Canceled != 0 {
		t.Errorf("stats = %+v, want %d clean completions", st, jobs)
	}
}

// TestEngineAutocluster exercises the clustered-design cache: a flat design
// job with the front-end enabled synthesizes a hierarchy once, repeat jobs
// under the same knobs hit the cache, and a well-shaped circuit job records
// a no-op pass-through. All outcomes surface in EngineStats.
func TestEngineAutocluster(t *testing.T) {
	spec := loadSpecA()
	spec.Flat = true
	g := circuits.Generate(spec)

	eng := hidap.NewEngine(nil, hidap.EngineOptions{Workers: 2})
	defer eng.Close()
	ctx := context.Background()

	p := hidap.DefaultAutocluster()
	p.MaxNumInst = 300
	p.MaxNumMacro = 3
	p.MinNumMacro = 1
	cfg := func(seed int64) *hidap.Config {
		return hidap.NewConfig(hidap.WithEffort(hidap.EffortLow),
			hidap.WithSeed(seed), hidap.WithAutocluster(p))
	}

	run := func(seed int64, label string) *hidap.JobResult {
		t.Helper()
		tk, err := eng.Submit(ctx, hidap.Job{
			Design: g.Design, Placer: "hidap", Config: cfg(seed), Label: label,
		})
		if err != nil {
			t.Fatalf("Submit(%s): %v", label, err)
		}
		res, err := tk.Wait(ctx)
		if err != nil {
			t.Fatalf("job %s: %v", label, err)
		}
		return res
	}

	r1 := run(1, "flat-1")
	st := eng.Stats()
	if st.DesignsClustered != 1 || st.ClusterCacheHits != 0 {
		t.Fatalf("after first job: clustered=%d hits=%d, want 1/0",
			st.DesignsClustered, st.ClusterCacheHits)
	}
	if st.ClustersEmitted == 0 {
		t.Errorf("synthesis counters empty: %+v", st)
	}

	// Same design + same knobs: the clustered variant is served from cache,
	// and equal seeds reproduce the placement exactly.
	r2 := run(1, "flat-2")
	st = eng.Stats()
	if st.DesignsClustered != 1 || st.ClusterCacheHits != 1 {
		t.Fatalf("after repeat job: clustered=%d hits=%d, want 1/1",
			st.DesignsClustered, st.ClusterCacheHits)
	}
	if len(r1.Placement.Pos) != len(r2.Placement.Pos) {
		t.Fatal("placement shape mismatch")
	}
	for i := range r1.Placement.Pos {
		if r1.Placement.Pos[i] != r2.Placement.Pos[i] {
			t.Fatal("repeat job with cached clustered design diverged")
		}
	}

	// A well-shaped circuit job under the default (loose) knobs records a
	// no-op pass-through, once for the job: its three λ candidates, placed
	// concurrently, share one resolution and tally no cache hit.
	wellShaped := loadSpecB()
	noopCfg := hidap.NewConfig(hidap.WithEffort(hidap.EffortLow), hidap.WithSeed(1),
		hidap.WithAutocluster(hidap.DefaultAutocluster()), hidap.WithParallelism(2))
	tk, err := eng.Submit(ctx, hidap.Job{Circuit: &wellShaped, Config: noopCfg, Label: "noop"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tk.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	st = eng.Stats()
	if st.AutoclusterNoop != 1 || st.ClusterCacheHits != 1 {
		t.Errorf("noop count = %d, cache hits = %d, want 1 and 1", st.AutoclusterNoop, st.ClusterCacheHits)
	}

	// indeda never reads the hierarchy: no clustering work is charged.
	before := eng.Stats()
	tk, err = eng.Submit(ctx, hidap.Job{Design: g.Design, Placer: "indeda", Config: cfg(1), Label: "indeda"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tk.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	st = eng.Stats()
	if st.DesignsClustered != before.DesignsClustered || st.ClusterCacheHits != before.ClusterCacheHits {
		t.Errorf("indeda job touched the cluster cache: before %+v after %+v", before, st)
	}
}

// TestJobMacroSecondsExcludesAutocluster: a job's MacroSeconds leaves the
// autocluster front end (the synthesis and the Gseq build it triggers) out,
// whether the job evaluates or not. On a flat design, a non-evaluating job
// on a fresh engine measures the front end as the wall time outside its
// MacroSeconds. An evaluating job on another fresh engine pays the same
// front end and places the same single candidate, so its MacroSeconds must
// exceed the non-evaluating job's by well under half the front end.
func TestJobMacroSecondsExcludesAutocluster(t *testing.T) {
	g := circuits.GenFlat(circuits.Spec{
		Name: "front", Cells: 600_000, Macros: 6, Subsystems: 2,
		BusWidth: 8, PipelineDepth: 1, Scale: 6, Seed: 5,
	})
	cfg := hidap.NewConfig(hidap.WithEffort(hidap.EffortLow), hidap.WithSeed(1),
		hidap.WithParallelism(1), hidap.WithAutocluster(hidap.DefaultAutocluster()))
	run := func(evaluate bool) (macro, wall float64) {
		t.Helper()
		eng := hidap.NewEngine(cfg, hidap.EngineOptions{Workers: 1})
		defer eng.Close()
		start := time.Now()
		res, err := eng.Run(context.Background(), hidap.Job{Design: g.Design, Key: "front", Placer: "hidap", Evaluate: evaluate})
		if err != nil {
			t.Fatal(err)
		}
		if st := eng.Stats(); st.DesignsClustered != 1 {
			t.Fatalf("evaluate=%v: %d designs clustered, want 1", evaluate, st.DesignsClustered)
		}
		return res.Stats.MacroSeconds, time.Since(start).Seconds()
	}
	macro, wall := run(false)
	front := wall - macro
	evalMacro, _ := run(true)
	t.Logf("front end %.4fs; MacroSeconds %.4fs without evaluation, %.4fs with", front, macro, evalMacro)
	if evalMacro <= 0 || evalMacro >= macro+front/2 {
		t.Errorf("evaluating job: MacroSeconds = %.4fs, want in (0, %.4f): the front end took %.4fs", evalMacro, macro+front/2, front)
	}
}

// TestJobMacroSecondsExcludesArtifactBuilds: a hidap job's MacroSeconds
// leaves out building the design's Gseq, hierarchy tree and bipartite
// graph, so a design's first job reports about what a later job on the
// cached design does. Timed on their own, the builds take some time; the
// first job on a fresh engine must spend at least a quarter of that
// outside its MacroSeconds (a job that timed them spends almost nothing
// outside).
func TestJobMacroSecondsExcludesArtifactBuilds(t *testing.T) {
	g := circuits.Generate(circuits.Spec{
		Name: "builds", Cells: 600_000, Macros: 6, Subsystems: 2,
		BusWidth: 8, PipelineDepth: 1, Scale: 3, Seed: 5,
	})
	start := time.Now()
	art := core.NewArtifacts(g.Design, nil)
	art.SeqGraph()
	art.Tree()
	art.Bipartite()
	builds := time.Since(start).Seconds()

	eng := hidap.NewEngine(fastCfg(1), hidap.EngineOptions{Workers: 1})
	defer eng.Close()
	start = time.Now()
	res, err := eng.Run(context.Background(), hidap.Job{Design: g.Design, Key: "builds", Placer: "hidap"})
	if err != nil {
		t.Fatal(err)
	}
	macro := res.Stats.MacroSeconds
	outside := time.Since(start).Seconds() - macro
	t.Logf("builds %.4fs; first job: MacroSeconds %.4fs, %.4fs outside it", builds, macro, outside)
	if macro <= 0 || outside < builds/4 {
		t.Errorf("first job: MacroSeconds %.4fs with %.4fs outside it, want > 0 and at least %.4fs outside: the builds take %.4fs",
			macro, outside, builds/4, builds)
	}
}

// TestCircuitAndDesignJobsAgree: a circuit job and an evaluating design job
// on the same design, with equal seed, place every macro alike and return
// the same bookkeeping: equal Stats (but for MacroSeconds and Trace) and
// equal Reports (but for MacroSeconds and Label). For HiDaP the circuit
// job runs at the one λ 0.5 and the design job at λ 0.5, with and without
// autoclustering, at k 4 and flat (a circuit job that dropped any of those
// knobs places differently). The IndEDA circuit job, which always runs at
// high effort, matches an indeda design job at high effort, and the handFP
// one a handfp design job given the circuit's intent.
func TestCircuitAndDesignJobsAgree(t *testing.T) {
	p := hidap.DefaultAutocluster()
	p.MaxNumInst = 300
	p.MaxNumMacro = 3
	p.MinNumMacro = 1
	intent := circuits.Generate(loadSpecA()).Intent
	for _, tc := range []struct {
		name   string
		flat   bool
		placer string
		opts   []hidap.Option
	}{
		{"plain", false, "hidap", nil},
		{"autocluster", true, "hidap", []hidap.Option{hidap.WithAutocluster(p)}},
		{"k4", false, "hidap", []hidap.Option{hidap.WithK(4)}},
		{"flat", false, "hidap", []hidap.Option{hidap.WithFlat()}},
		{"indeda", false, "indeda", []hidap.Option{hidap.WithEffort(hidap.EffortHigh)}},
		{"handfp", false, "handfp", []hidap.Option{hidap.WithIntent(intent)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := loadSpecA()
			spec.Flat = tc.flat
			g := circuits.Generate(spec)
			eng := hidap.NewEngine(nil, hidap.EngineOptions{Workers: 2})
			defer eng.Close()
			ctx := context.Background()
			cfg := hidap.NewConfig(append([]hidap.Option{hidap.WithEffort(hidap.EffortLow),
				hidap.WithSeed(3), hidap.WithLambda(0.5)}, tc.opts...)...)
			run := func(job hidap.Job) *hidap.JobResult {
				t.Helper()
				job.Config = cfg
				res, err := eng.Run(ctx, job)
				if err != nil {
					t.Fatalf("job %q: %v", job.Label, err)
				}
				return res
			}
			ckt := run(hidap.Job{Circuit: &spec, Placer: tc.placer, Lambdas: []float64{0.5}, Label: "circuit"})
			des := run(hidap.Job{Design: g.Design, Placer: tc.placer, Evaluate: true, Label: "design"})
			sameMacros(t, g.Design, ckt.Placement, des.Placement)
			if ckt.Stats.Placer != tc.placer || des.Stats.Placer != tc.placer {
				t.Errorf("Stats.Placer: circuit job %q, design job %q, want %q", ckt.Stats.Placer, des.Stats.Placer, tc.placer)
			}
			cs, ds := ckt.Stats, des.Stats
			if cs.Levels != ds.Levels || cs.Flips != ds.Flips || cs.SeqStats != ds.SeqStats || cs.Lambda != ds.Lambda {
				t.Errorf("Stats: circuit job levels %d flips %d seq %+v λ %v, design job levels %d flips %d seq %+v λ %v",
					cs.Levels, cs.Flips, cs.SeqStats, cs.Lambda, ds.Levels, ds.Flips, ds.SeqStats, ds.Lambda)
			}
			if tc.placer == "hidap" && cs.Levels == 0 {
				t.Error("hidap circuit job reports 0 levels")
			}
			if ckt.Report.Placer != tc.placer {
				t.Errorf("Report.Placer = %q, want %q", ckt.Report.Placer, tc.placer)
			}
			sameReport(t, ckt.Report, des.Report)
		})
	}
}

// sameMacros fails t unless a and b place every macro of d alike.
func sameMacros(t *testing.T, d *hidap.Design, a, b *hidap.Placement) {
	t.Helper()
	for _, m := range d.Macros() {
		if a.Pos[m] != b.Pos[m] || a.Orient[m] != b.Orient[m] {
			t.Fatalf("macro %s: %v %v vs %v %v", d.Cell(m).Name, a.Pos[m], a.Orient[m], b.Pos[m], b.Orient[m])
		}
	}
}

// sameReport fails t unless a and b agree in every field but the wall time
// and the caller's label.
func sameReport(t *testing.T, a, b *hidap.Report) {
	t.Helper()
	x, y := *a, *b
	x.MacroSeconds, y.MacroSeconds = 0, 0
	x.Label, y.Label = "", ""
	if x != y {
		t.Errorf("Reports differ:\n%+v\n%+v", x, y)
	}
}
