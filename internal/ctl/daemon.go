package ctl

import (
	"context"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/ckptstore"
	"repro/internal/comm"
)

// Config configures a Daemon.
type Config struct {
	// Fleet declares the shared worker pool (required: Workers ≥ 1).
	Fleet Fleet
	// StoreDir roots the content-addressed checkpoint store (required).
	StoreDir string
	// Retention prunes the store after every checkpoint write (zero value:
	// keep everything).
	Retention ckptstore.Policy
	// MetricsBuffer caps each job's retained step metrics (default 4096).
	MetricsBuffer int
	// Heartbeat tunes elastic failure detection for every job (zero values
	// take the comm defaults).
	Heartbeat comm.HeartbeatConfig
	// Log, when non-nil, receives scheduler and generation transitions.
	Log io.Writer
}

// Daemon is the control plane: it admits submitted jobs against the fleet,
// schedules them fair-share within the worker pool, executes each through
// trainer.RunElastic (so worker deaths recover without operator action),
// streams per-step metrics, and checkpoints into the content-addressed
// store. All methods are safe for concurrent use.
type Daemon struct {
	cfg   Config
	store *ckptstore.Store

	mu     sync.Mutex
	jobs   map[string]*job
	order  []*job // submit order, the FIFO axis of fair-share
	nextID int
	free   int            // unreserved workers
	usage  map[string]int // user → reserved workers

	draining bool
	closed   bool
	wg       sync.WaitGroup // one entry per launched job goroutine
}

// NewDaemon opens the store and starts an idle daemon.
func NewDaemon(cfg Config) (*Daemon, error) {
	if cfg.Fleet.Workers < 1 {
		return nil, fmt.Errorf("ctl: daemon needs a fleet with ≥ 1 worker")
	}
	if cfg.StoreDir == "" {
		return nil, fmt.Errorf("ctl: daemon needs a checkpoint store directory")
	}
	if cfg.MetricsBuffer < 1 {
		cfg.MetricsBuffer = 4096
	}
	store, err := ckptstore.Open(cfg.StoreDir)
	if err != nil {
		return nil, err
	}
	d := &Daemon{
		cfg:   cfg,
		store: store,
		jobs:  make(map[string]*job),
		free:  cfg.Fleet.Workers,
		usage: make(map[string]int),
	}
	// A job resumes from the newest checkpoint under its ID, so a restarted
	// daemon numbers after every ID its store holds.
	ids, err := store.Jobs()
	if err != nil {
		return nil, err
	}
	for _, id := range ids {
		var n int
		if _, err := fmt.Sscanf(id, "j-%d", &n); err == nil && n > d.nextID {
			d.nextID = n
		}
	}
	return d, nil
}

// Store exposes the daemon's checkpoint store (read-side: listing refs,
// loading checkpoints).
func (d *Daemon) Store() *ckptstore.Store { return d.store }

func (d *Daemon) logf(format string, args ...any) {
	if d.cfg.Log != nil {
		fmt.Fprintf(d.cfg.Log, format+"\n", args...)
	}
}

// setState moves j along a lifecycle edge. Caller holds d.mu; illegal
// edges panic because every caller checks CanTransition (or holds a state
// that makes the edge unconditional) first — a panic here is a daemon bug,
// not an operator error.
func (d *Daemon) setState(j *job, to State) {
	if !CanTransition(j.state, to) {
		panic(fmt.Sprintf("ctl: illegal transition %v → %v for %s", j.state, to, j.id))
	}
	j.state = to
	switch to {
	case Running:
		if j.started.IsZero() {
			j.started = time.Now()
		}
	case Completed, Failed, Cancelled, Paused:
		j.finished = time.Now()
	case Queued: // resume: the job is live again
		j.finished = time.Time{}
	}
}

// Submit validates and admits a job. Validation and admission are
// synchronous: a returned error means the job will never run — admission
// rejections are additionally recorded as a Failed job so the decision
// stays inspectable. On success the job is Queued and the scheduler picks
// it up as workers free.
func (d *Daemon) Submit(spec *JobSpec) (JobView, error) {
	if spec == nil {
		return JobView{}, fmt.Errorf("ctl: nil job spec")
	}
	if err := spec.Validate(); err != nil {
		return JobView{}, err
	}
	admitErr := Admit(spec, d.cfg.Fleet)

	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return JobView{}, fmt.Errorf("ctl: daemon is closed")
	}
	if d.draining {
		return JobView{}, fmt.Errorf("ctl: daemon is draining, not accepting jobs")
	}
	d.nextID++
	j := &job{
		id:        fmt.Sprintf("j-%04d", d.nextID),
		spec:      spec,
		state:     Queued,
		submitted: time.Now(),
		metrics:   newMetricsBuffer(d.cfg.MetricsBuffer),
	}
	d.jobs[j.id] = j
	d.order = append(d.order, j)
	if admitErr != nil {
		j.err = admitErr.Error()
		d.setState(j, Failed)
		d.logf("ctl: %s (%s) rejected: %v", j.id, spec.Name, admitErr)
		return j.view(false), admitErr
	}
	d.logf("ctl: %s (%s) queued: user %s, world %d", j.id, spec.Name, spec.User, spec.World)
	d.scheduleLocked()
	return j.view(false), nil
}

// scheduleLocked launches every queued job that fits the free workers,
// fair-share order. Caller holds d.mu.
func (d *Daemon) scheduleLocked() {
	if d.draining || d.closed {
		return
	}
	for {
		j := pickNext(d.order, d.free, d.usage)
		if j == nil {
			return
		}
		d.free -= j.spec.World
		d.usage[j.spec.User] += j.spec.World
		d.setState(j, Admitted)
		ctx, cancel := context.WithCancel(context.Background())
		j.cancel = cancel
		d.logf("ctl: %s admitted: %d worker(s) reserved, %d free", j.id, j.spec.World, d.free)
		d.wg.Add(1)
		go d.runJob(ctx, j)
	}
}

// runJob drives one admitted job to a settled state and releases its
// workers.
func (d *Daemon) runJob(ctx context.Context, j *job) {
	defer d.wg.Done()

	d.mu.Lock()
	if j.cancelRequested {
		// Cancelled in the Admitted window, before training began.
		d.releaseLocked(j)
		d.setState(j, Cancelled)
		d.scheduleLocked()
		d.mu.Unlock()
		return
	}
	d.setState(j, Running)
	d.mu.Unlock()

	res, err := runElasticJob(ctx, d, j)

	d.mu.Lock()
	defer d.mu.Unlock()
	d.releaseLocked(j)
	if res != nil && res.Result != nil {
		r := &Result{
			Iterations:  res.Result.Iterations,
			Generations: len(res.Generations),
		}
		if n := len(res.Result.History); n > 0 {
			last := res.Result.History[n-1]
			// Epoch indices are global (a resumed run's history starts at
			// its checkpoint), so the last index counts all completed
			// epochs across pause/resume cycles.
			r.Epochs = last.Epoch + 1
			r.FinalTrainLoss = last.TrainLoss
			r.FinalTestAcc = last.ValAcc
		}
		if prev := j.result; prev != nil && r.Epochs == 0 {
			// A resume that made no new epoch keeps the prior outcome.
			r.Epochs = prev.Epochs
			r.FinalTrainLoss = prev.FinalTrainLoss
			r.FinalTestAcc = prev.FinalTestAcc
		}
		j.result = r
	}
	switch {
	case err == nil:
		d.setState(j, Completed)
		d.logf("ctl: %s completed: %d epoch(s), %d generation(s)", j.id,
			j.result.Epochs, j.result.Generations)
	case j.cancelRequested:
		d.setState(j, Cancelled)
		d.logf("ctl: %s cancelled", j.id)
	case j.pauseRequested:
		j.pauseRequested = false
		d.setState(j, Paused)
		d.logf("ctl: %s paused", j.id)
	default:
		j.err = err.Error()
		d.setState(j, Failed)
		d.logf("ctl: %s failed: %v", j.id, err)
	}
	d.scheduleLocked()
}

// releaseLocked returns j's reserved workers to the pool. Caller holds
// d.mu.
func (d *Daemon) releaseLocked(j *job) {
	d.free += j.spec.World
	d.usage[j.spec.User] -= j.spec.World
	if d.usage[j.spec.User] <= 0 {
		delete(d.usage, j.spec.User)
	}
}

func (d *Daemon) get(id string) (*job, error) {
	j, ok := d.jobs[id]
	if !ok {
		return nil, fmt.Errorf("ctl: no such job %q", id)
	}
	return j, nil
}

// Jobs lists every known job in submit order (without specs).
func (d *Daemon) Jobs() []JobView {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]JobView, 0, len(d.order))
	for _, j := range d.order {
		out = append(out, j.view(false))
	}
	return out
}

// Job returns one job's full view, spec included.
func (d *Daemon) Job(id string) (JobView, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	j, err := d.get(id)
	if err != nil {
		return JobView{}, err
	}
	return j.view(true), nil
}

// Metrics returns a job's retained step metrics with Seq > after, oldest
// first.
func (d *Daemon) Metrics(id string, after int) ([]StepMetric, error) {
	d.mu.Lock()
	j, err := d.get(id)
	d.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return j.metrics.since(after), nil
}

// Pause stops a job while keeping it resumable: a queued job parks
// immediately; a running job's context is cancelled, and every rank stops
// at the same iteration boundary through the session's consensus stop.
// A resume continues from its newest store checkpoint, the last checkpoint
// boundary it passed, and replays the steps since. Pausing a launching
// (Admitted) or settled job is an error.
func (d *Daemon) Pause(id string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	j, err := d.get(id)
	if err != nil {
		return err
	}
	switch j.state {
	case Queued:
		d.setState(j, Paused)
		return nil
	case Running:
		j.pauseRequested = true
		j.cancel()
		return nil
	case Admitted:
		return fmt.Errorf("ctl: job %s is launching; retry pause in a moment", id)
	}
	return fmt.Errorf("ctl: cannot pause job %s in state %v", id, j.state)
}

// Resume re-queues a paused job. It re-enters scheduling under the same
// quota accounting as a fresh submission and continues from its latest
// store checkpoint.
func (d *Daemon) Resume(id string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	j, err := d.get(id)
	if err != nil {
		return err
	}
	if j.state != Paused {
		return fmt.Errorf("ctl: cannot resume job %s in state %v (want paused)", id, j.state)
	}
	if d.draining || d.closed {
		return fmt.Errorf("ctl: daemon is draining, not accepting jobs")
	}
	d.setState(j, Queued)
	d.scheduleLocked()
	return nil
}

// Cancel terminates a job permanently. A running job stops through the
// same cooperative consensus stop as Pause — every rank stops at the same
// iteration boundary — but lands in the terminal Cancelled state.
func (d *Daemon) Cancel(id string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	j, err := d.get(id)
	if err != nil {
		return err
	}
	switch j.state {
	case Queued, Paused:
		d.setState(j, Cancelled)
		return nil
	case Admitted, Running:
		j.cancelRequested = true
		j.cancel()
		return nil
	}
	return fmt.Errorf("ctl: cannot cancel job %s in state %v", id, j.state)
}

// Drain gracefully winds the daemon down: new submissions are refused,
// queued jobs stay queued, and every running job is paused through the
// consensus stop, its newest checkpoint kept in the store. Blocks until
// all job goroutines settle or ctx expires.
func (d *Daemon) Drain(ctx context.Context) error {
	d.mu.Lock()
	if d.draining {
		d.mu.Unlock()
		return nil
	}
	d.draining = true
	for _, j := range d.order {
		if j.state == Running || j.state == Admitted {
			j.pauseRequested = true
			j.cancel()
		}
	}
	d.mu.Unlock()
	d.logf("ctl: draining")

	done := make(chan struct{})
	go func() { d.wg.Wait(); close(done) }()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("ctl: drain interrupted: %w", ctx.Err())
	}
}

// Close shuts the daemon down, cancelling whatever Drain has not already
// stopped, and waits for job goroutines to exit.
func (d *Daemon) Close() error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil
	}
	d.closed = true
	d.draining = true
	for _, j := range d.order {
		if j.state == Running || j.state == Admitted {
			j.cancelRequested = true
			j.cancel()
		}
	}
	d.mu.Unlock()
	d.wg.Wait()
	return nil
}
