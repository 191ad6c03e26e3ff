package main

import (
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/storage"
)

// The probes below observe the program from outside, through the public
// interfaces its engines accept: a storage.Device, a core.Partitioner and a
// core.Tracer. Each one forwards every call unchanged and only records
// timing, so wrapping an engine's inputs with them changes no result bit
// (probes_test.go checks this).

// ioCounters accumulates the device traffic a timingDevice observes.
// Durations are summed over operations, so with concurrent reads (the disk
// engine prefetches) read time is busy time, not elapsed time.
type ioCounters struct {
	readOps, readBytes, readNanos    atomic.Int64
	writeOps, writeBytes, writeNanos atomic.Int64
}

func (c *ioCounters) reset() {
	for _, v := range []*atomic.Int64{&c.readOps, &c.readBytes, &c.readNanos, &c.writeOps, &c.writeBytes, &c.writeNanos} {
		v.Store(0)
	}
}

// ioSnapshot is a point-in-time copy of ioCounters.
type ioSnapshot struct {
	readOps, readBytes, writeBytes int64
	readS, writeS                  float64
}

func (c *ioCounters) snapshot() ioSnapshot {
	return ioSnapshot{
		readOps:    c.readOps.Load(),
		readBytes:  c.readBytes.Load(),
		writeBytes: c.writeBytes.Load(),
		readS:      time.Duration(c.readNanos.Load()).Seconds(),
		writeS:     time.Duration(c.writeNanos.Load()).Seconds(),
	}
}

// timingDevice is a pass-through storage.Device that times every ReadAt and
// WriteAt of the files it hands out while on is set; while it is clear the
// files forward without touching the clock.
type timingDevice struct {
	storage.Device
	on atomic.Bool
	io ioCounters
}

func newTimingDevice(inner storage.Device) *timingDevice { return &timingDevice{Device: inner} }

func (d *timingDevice) Create(name string) (storage.File, error) {
	f, err := d.Device.Create(name)
	if err != nil {
		return nil, err
	}
	return &timingFile{File: f, dev: d}, nil
}

func (d *timingDevice) Open(name string) (storage.File, error) {
	f, err := d.Device.Open(name)
	if err != nil {
		return nil, err
	}
	return &timingFile{File: f, dev: d}, nil
}

type timingFile struct {
	storage.File
	dev *timingDevice
}

func (f *timingFile) ReadAt(p []byte, off int64) (int, error) {
	if !f.dev.on.Load() {
		return f.File.ReadAt(p, off)
	}
	t0 := time.Now()
	n, err := f.File.ReadAt(p, off)
	io := &f.dev.io
	io.readNanos.Add(int64(time.Since(t0)))
	io.readOps.Add(1)
	io.readBytes.Add(int64(n))
	return n, err
}

func (f *timingFile) WriteAt(p []byte, off int64) (int, error) {
	if !f.dev.on.Load() {
		return f.File.WriteAt(p, off)
	}
	t0 := time.Now()
	n, err := f.File.WriteAt(p, off)
	io := &f.dev.io
	io.writeNanos.Add(int64(time.Since(t0)))
	io.writeOps.Add(1)
	io.writeBytes.Add(int64(n))
	return n, err
}

// timingPartitioner is a pass-through core.Partitioner that times Assign.
type timingPartitioner struct {
	inner core.Partitioner

	mu    sync.Mutex
	times []time.Duration
}

func (p *timingPartitioner) Name() string { return p.inner.Name() }

func (p *timingPartitioner) Assign(src core.EdgeSource, k int) (*core.Assignment, error) {
	t0 := time.Now()
	asg, err := p.inner.Assign(src, k)
	d := time.Since(t0)
	p.mu.Lock()
	p.times = append(p.times, d)
	p.mu.Unlock()
	return asg, err
}

// assignSeconds returns the durations of every Assign call so far.
func (p *timingPartitioner) assignSeconds() []float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]float64, len(p.times))
	for i, d := range p.times {
		out[i] = d.Seconds()
	}
	return out
}

// span is one interval a recorder received.
type span struct {
	Track int              `json:"track"`
	Name  string           `json:"name"`
	Start time.Time        `json:"start"`
	Dur   time.Duration    `json:"dur_ns"`
	Args  map[string]int64 `json:"args,omitempty"`
	Op    int              `json:"op"`
}

// recorder is a core.Tracer that keeps every span in memory, tagged with
// the operation it belongs to, and writes them out when the run ends.
type recorder struct {
	mu    sync.Mutex
	op    int
	spans []span
}

func (r *recorder) Span(track int, name string, start time.Time, d time.Duration, args map[string]int64) {
	var cp map[string]int64
	if len(args) > 0 {
		cp = make(map[string]int64, len(args))
		for k, v := range args {
			cp[k] = v
		}
	}
	r.mu.Lock()
	r.spans = append(r.spans, span{Track: track, Name: name, Start: start, Dur: d, Args: cp, Op: r.op})
	r.mu.Unlock()
}

// begin starts a new operation and returns its number.
func (r *recorder) begin() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.op++
	return r.op
}

// phaseSeconds sums the coordinator-track spans of one operation by name.
func (r *recorder) phaseSeconds(op int) map[string]float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := map[string]float64{}
	for _, s := range r.spans {
		if s.Op == op && s.Track == 0 {
			out[s.Name] += s.Dur.Seconds()
		}
	}
	return out
}

// writeFile saves every recorded span together with the run's per-layer
// metrics as one JSON document.
func (r *recorder) writeFile(path string, metrics map[string]float64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(struct {
		Metrics map[string]float64 `json:"metrics"`
		Spans   []span             `json:"spans"`
	}{metrics, r.spans}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
