package main

import (
	"bytes"
	"fmt"

	"glasswing/internal/apps"
	"glasswing/internal/core"
	"glasswing/internal/dfs"
	"glasswing/internal/dist"
	"glasswing/internal/kv"
	"glasswing/internal/native"
	"glasswing/internal/workload"
)

// Input shapes shared by every workload.
const (
	blockSize  = 256 << 10 // map split size for native and dist jobs
	partitions = 8         // reduce partitions for native and dist jobs
	vocab      = 50_000    // word-count vocabulary
	tsSample   = 16        // TeraSort range-partitioner sampling stride
)

// dataset is one job input with its reference answer, computed once during
// set-up so a timed job pays only for comparing against it.
type dataset struct {
	app    string // "wc" or "ts"
	data   []byte
	blocks [][]byte
	wcRef  map[string]uint64
	tsRef  []kv.Pair // input records sorted by (key, value)
	sample [][]byte  // TeraSort range-partitioner sample
}

func wcDataset(seed int64, size, block int) *dataset {
	return newWC(workload.WikiText(seed, size, vocab), block)
}

func tsDataset(seed int64, size int) *dataset {
	return newTS(apps.TSData(seed, size/workload.TeraRecordSize))
}

func newWC(data []byte, block int) *dataset {
	return &dataset{app: "wc", data: data, blocks: dfs.SplitLines(data, int64(block)), wcRef: apps.WCRef(data)}
}

func newTS(data []byte) *dataset {
	ref := make([]kv.Pair, 0, len(data)/workload.TeraRecordSize)
	for off := 0; off < len(data); off += workload.TeraRecordSize {
		rec := data[off : off+workload.TeraRecordSize]
		ref = append(ref, kv.Pair{Key: rec[:10], Value: rec[10:]})
	}
	kv.SortPairs(ref)
	return &dataset{
		app:    "ts",
		data:   data,
		blocks: dfs.SplitFixed(data, blockSize, workload.TeraRecordSize),
		tsRef:  ref,
		sample: apps.TeraSample(data, tsSample),
	}
}

// coreApp returns the application and its partitioner (nil = hash).
func (d *dataset) coreApp() (*core.App, func([]byte, int) int) {
	if d.app == "ts" {
		return apps.TeraSort(), apps.RangePartitioner(d.sample)
	}
	return apps.WordCount(), nil
}

// verify compares a job's output with the reference; the error names the
// first differing key.
func (d *dataset) verify(out []kv.Pair) error {
	if d.app == "wc" {
		return apps.VerifyCounts(out, d.wcRef)
	}
	if len(out) != len(d.tsRef) {
		return fmt.Errorf("ts: %d output records, want %d", len(out), len(d.tsRef))
	}
	for i, p := range out {
		want := d.tsRef[i]
		if !bytes.Equal(p.Key, want.Key) || !bytes.Equal(p.Value, want.Value) {
			return fmt.Errorf("ts: record %d has key %q, want %q", i, p.Key, want.Key)
		}
	}
	return nil
}

// nativeConfig is the wc-native pipeline shape: hash collector without a
// combiner for word count, buffer pool with the sampled range partitioner
// for TeraSort; 8 partitions, no spill.
func (d *dataset) nativeConfig(kernelWorkers int) native.Config {
	_, part := d.coreApp()
	cfg := native.Config{KernelWorkers: kernelWorkers, Partitions: partitions, Partitioner: part}
	if d.app == "ts" {
		cfg.Collector = core.BufferPool
	}
	return cfg
}

func (d *dataset) runNative(cfg native.Config) (*native.Result, error) {
	app, _ := d.coreApp()
	return native.Run(app, d.blocks, cfg)
}

// distOptions is a loopback job over d with the combiner off: hash
// collector for word count, buffer pool and range partitioner for
// TeraSort, 8 partitions.
func (d *dataset) distOptions(workers int, workDir string) (dist.Options, error) {
	job, blocks, _, err := dist.FileJob(d.app, d.data, partitions, blockSize, false)
	if err != nil {
		return dist.Options{}, err
	}
	return dist.Options{
		Job:        job,
		Workers:    workers,
		Blocks:     blocks,
		KillWorker: -1,
		Tuning:     dist.Tuning{WorkDir: workDir},
	}, nil
}

// slice returns a prefix of about n bytes of d, cut on a record boundary,
// as a dataset of its own (service jobs sized from a bigger input).
func (d *dataset) slice(n int) *dataset {
	if n >= len(d.data) {
		return d
	}
	if d.app == "ts" {
		return newTS(d.data[:n-n%workload.TeraRecordSize])
	}
	if i := bytes.LastIndexByte(d.data[:n], '\n'); i > 0 {
		n = i + 1
	}
	return newWC(d.data[:n], blockSize)
}
