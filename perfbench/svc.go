package main

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"glasswing/internal/dist"
	"glasswing/internal/jobsvc"
	"glasswing/perfbench/benchstat"
)

// svc-small shape: a fixed open-loop rate of small jobs on a 4-slot fleet.
const (
	svcRate       = 20.0      // jobs per second offered: about half the 40-45 jobs/s where p50 turns up on a 2-CPU Xeon
	svcJobBytes   = 256 << 10 // input per job
	svcPool       = 12        // distinct job inputs, cycled
	svcFleet      = 4         // worker slots in the service
	svcWorkers    = 2         // workers per job
	svcPartitions = 4
	svcChunk      = 64 << 10
	svcPoll       = 2 * time.Millisecond
	svcJobTimeout = 60 * time.Second
)

var (
	svcTenants    = []string{"t0", "t1", "t2"}
	svcPriorities = []string{"normal", "high"}
)

// svcSeeds are the per-job-input seeds derived from the workload seed.
func svcSeeds(seed int64) []int64 {
	out := make([]int64, svcPool)
	for k := range out {
		out[k] = seed*1000 + int64(k)
	}
	return out
}

// service is a jobsvc instance on a loopback listener plus a client
// limited to one keep-alive connection per CPU.
type service struct {
	svc    *jobsvc.Service
	srv    *http.Server
	served chan struct{}
	tr     *http.Transport
	api    *jobsvc.Client
}

func startService(b *bench) (*service, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("service listen: %w", err)
	}
	s := &service{
		svc: jobsvc.New(jobsvc.Config{
			FleetWorkers:       svcFleet,
			Tuning:             dist.Tuning{WorkDir: b.tmp},
			RuntimeSampleEvery: -1,
		}),
		served: make(chan struct{}),
		tr:     &http.Transport{MaxConnsPerHost: b.nproc, MaxIdleConnsPerHost: b.nproc, DisableCompression: true},
	}
	s.srv = &http.Server{Handler: s.svc.Handler()}
	s.api = &jobsvc.Client{Base: "http://" + ln.Addr().String(), HTTP: &http.Client{Transport: s.tr}}
	go func() {
		defer close(s.served)
		_ = s.srv.Serve(ln) // returns ErrServerClosed on shutdown
	}()
	return s, nil
}

func (s *service) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = s.srv.Shutdown(ctx) // a job still polled at the deadline is abandoned
	<-s.served
	s.svc.Close()
	s.tr.CloseIdleConnections()
}

// svcJob is one prepared submission: the encoded POST /jobs body and the
// dataset it carries, for verification.
type svcJob struct {
	d    *dataset
	body []byte
}

func newSvcJob(d *dataset, tenant, priority string) (*svcJob, error) {
	req := jobsvc.Request{
		Tenant: tenant, App: d.app, Priority: priority,
		InputB64:   base64.StdEncoding.EncodeToString(d.data),
		Chunk:      svcChunk,
		Partitions: svcPartitions,
		Workers:    svcWorkers,
	}
	if d.app == "ts" {
		req.RecordSize = 100
		req.ParamsB64 = base64.StdEncoding.EncodeToString(dist.EncodeTSParams(d.sample))
		req.Collector = "pool"
	} else {
		req.Collector = "hash"
		req.UseCombiner = true
	}
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	return &svcJob{d: d, body: body}, nil
}

// svcOutcome is one service job as the client saw it.
type svcOutcome struct {
	due, sent, submitted, done time.Time
	st                         jobsvc.Status
	counters                   map[string]int64 // traced runs only
	err                        error
}

// submit posts the job and decodes the admission status.
func (s *service) submit(j *svcJob) (jobsvc.Status, error) {
	resp, err := s.api.HTTP.Post(s.api.Base+"/jobs", "application/json", bytes.NewReader(j.body))
	if err != nil {
		return jobsvc.Status{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(resp.Body)
		return jobsvc.Status{}, &jobsvc.APIError{Status: resp.StatusCode, Msg: string(bytes.TrimSpace(msg))}
	}
	var st jobsvc.Status
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// run submits j, polls it to a terminal state, fetches and verifies the
// result; traced runs also fetch the job's counters.
func (s *service) run(j *svcJob, due, sent time.Time, traced bool) svcOutcome {
	o := svcOutcome{due: due, sent: sent}
	o.err = s.exec(j, traced, &o)
	o.done = time.Now()
	return o
}

func (s *service) exec(j *svcJob, traced bool, o *svcOutcome) error {
	st, err := s.submit(j)
	o.submitted = time.Now()
	if err != nil {
		return fmt.Errorf("submit: %w", err)
	}
	deadline := time.Now().Add(svcJobTimeout)
	for st.State == jobsvc.StateQueued || st.State == jobsvc.StateRunning {
		if time.Now().After(deadline) {
			return fmt.Errorf("job %s still %s after %v", st.ID, st.State, svcJobTimeout)
		}
		time.Sleep(svcPoll)
		if st, err = s.api.Status(st.ID); err != nil {
			return fmt.Errorf("status: %w", err)
		}
	}
	o.st = st
	if st.State != jobsvc.StateDone {
		return fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
	}
	pairs, err := s.api.ResultPairs(st.ID)
	if err == nil {
		err = j.d.verify(pairs)
	}
	if err != nil {
		return fmt.Errorf("job %s result: %w", st.ID, err)
	}
	if traced {
		if o.counters, err = s.jobMetrics(st.ID); err != nil {
			return fmt.Errorf("job %s counters: %w", st.ID, err)
		}
	}
	return nil
}

// svcTarget is svc-small: an open-loop generator on a fixed schedule, one
// goroutine per job so a slow job never delays the next submission.
type svcTarget struct {
	s    *service
	jobs []*svcJob
}

func (t *svcTarget) input() *dataset { return t.jobs[0].d }
func (t *svcTarget) close()          { t.s.close() }

func setupSvc(b *bench) (target, error) {
	t := &svcTarget{}
	for k, seed := range svcSeeds(b.seed) {
		var d *dataset
		if k%2 == 0 {
			d = wcDataset(seed, svcJobBytes, blockSize)
		} else {
			d = tsDataset(seed, svcJobBytes)
		}
		j, err := newSvcJob(d, svcTenants[k%len(svcTenants)], svcPriorities[k/len(svcTenants)%len(svcPriorities)])
		if err != nil {
			return nil, err
		}
		t.jobs = append(t.jobs, j)
	}
	s, err := startService(b)
	if err != nil {
		return nil, err
	}
	t.s = s
	now := time.Now()
	if o := s.run(t.jobs[0], now, now, false); o.err != nil {
		s.close()
		return nil, fmt.Errorf("warm-up job: %w", o.err)
	}
	return t, nil
}

func (t *svcTarget) measure(b *bench, d time.Duration, tr *tracer) *window {
	n := max(1, int(svcRate*d.Seconds()))
	outs := make([]svcOutcome, n)
	w := &window{}
	resetPeakRSS()
	stat := readCPUStat()
	before := sampleUsage()
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		due := benchstat.Due(start, svcRate, i)
		time.Sleep(time.Until(due))
		sent := time.Now()
		w.lags = append(w.lags, benchstat.Lag(due, sent).Seconds())
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outs[i] = t.s.run(t.jobs[i%len(t.jobs)], due, sent, tr != nil)
		}(i)
	}
	wg.Wait()
	w.elapsed = time.Since(start).Seconds()
	w.steal = stealSince(stat)
	w.charge(before, sampleUsage())
	w.peaks = append(w.peaks, peakRSSMB())
	var inBytes int
	for i, o := range outs {
		w.attempted++
		if o.err != nil {
			w.failed++
			fmt.Fprintf(os.Stderr, "perfbench: svc-small job %d failed: %v\n", i, o.err)
		} else {
			w.lat = append(w.lat, benchstat.Latency(o.due, o.done).Seconds())
			inBytes += len(t.jobs[i%len(t.jobs)].d.data)
		}
		if tr != nil {
			tr.svcJob(o)
		}
	}
	w.mbPerS = float64(inBytes) / 1e6 / w.elapsed
	return w
}

// isRejected reports whether err is an admission rejection (HTTP 429).
func isRejected(err error) bool {
	var apiErr *jobsvc.APIError
	return errors.As(err, &apiErr) && apiErr.Status == http.StatusTooManyRequests
}
