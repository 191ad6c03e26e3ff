package main

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/membench"
	"repro/internal/storage"
	"repro/internal/streambuf"
	"repro/internal/tilecodec"
)

// Per-layer microbenchmarks over each workload's own data, plus the two
// rooflines they are compared with. Each runs for microTime.
const (
	microTime = 600 * time.Millisecond
	// tileEdges is the engines' default tile granularity (records).
	tileEdges = 4096
	// combineBufRecs is the engines' default private buffer (8 KiB) in
	// 8-byte float32 update records.
	combineBufRecs = 8 << 10 / 8
	// rooflineBytes is the buffer each roofline streams: far above any
	// last-level cache, so reads come from memory (or the page cache).
	rooflineBytes = 64 << 20
)

// microInput is the workload data the microbenchmarks run over: its edge
// list, its partition count and its partitioner's relabeling (nil for the
// identity), and the device the workload uses (nil when it has none).
type microInput struct {
	edges   []core.Edge
	nv      int64
	k       int
	relabel []core.VertexID
	dev     storage.Device
}

// layout returns the edges as the engines lay them out: endpoints
// relabeled, then grouped by source partition in stream order.
func (in microInput) layout() ([]core.Edge, core.Split) {
	split := core.NewSplit(in.nv, in.k)
	out := make([]core.Edge, len(in.edges))
	for i, e := range in.edges {
		if in.relabel != nil {
			e.Src, e.Dst = in.relabel[e.Src], in.relabel[e.Dst]
		}
		out[i] = e
	}
	sort.SliceStable(out, func(a, b int) bool { return split.Of(out[a].Src) < split.Of(out[b].Src) })
	return out, split
}

// runMicro runs every microbenchmark and sets its metric on rep.
func runMicro(rep *report, in microInput) error {
	edges, split := in.layout()

	// tilecodec.Decode over the workload's edges encoded in tiles of the
	// engines' granularity, never spanning a partition boundary.
	var tiles [][]byte
	var tileBytes int
	var enc tilecodec.Encoder
	for lo := 0; lo < len(edges); {
		p := split.Of(edges[lo].Src)
		hi := lo
		for hi < len(edges) && hi-lo < tileEdges && split.Of(edges[hi].Src) == p {
			hi++
		}
		t, _, err := enc.Encode(nil, edges[lo:hi])
		if err != nil {
			return fmt.Errorf("encode tile: %w", err)
		}
		tiles = append(tiles, t)
		tileBytes += len(t)
		lo = hi
	}
	rep.set("tilecodec.compressed_ratio", float64(tileBytes)/float64(len(edges)*tilecodec.EdgeBytes))
	var out []core.Edge
	var decoded int64
	start := time.Now()
	for time.Since(start) < microTime {
		for _, t := range tiles {
			var err error
			out, _, err = tilecodec.Decode(t, out)
			if err != nil {
				return fmt.Errorf("decode tile: %w", err)
			}
			decoded += int64(len(out))
		}
	}
	rep.set("tilecodec.decode_gbps", float64(decoded*tilecodec.EdgeBytes)/time.Since(start).Seconds()/1e9)

	// The update stream a dense iteration scatters: one record per edge,
	// addressed to its relabeled destination.
	ups := make([]core.Update[float32], len(edges))
	for i, e := range edges {
		ups[i] = core.Update[float32]{Dst: e.Dst, Val: 1}
	}
	add := func(a, b float32) float32 { return a + b }

	// core.CombineBuffer.Add, one thread, sized as the engines size it.
	cb := core.NewCombineBuffer[float32](core.DegreeAwareBufRecs(combineBufRecs, int64(len(edges)), in.nv), add)
	var adds int64
	start = time.Now()
	for time.Since(start) < microTime {
		for _, u := range ups {
			if cb.Add(u.Dst, u.Val) {
				cb.Drain(func([]core.Update[float32]) {})
			}
		}
		cb.Drain(func([]core.Update[float32]) {})
		adds += int64(len(ups))
	}
	rep.set("core.combine_add_per_s", float64(adds)/time.Since(start).Seconds())

	// streambuf.Shuffle into the workload's K partitions, then the
	// combining Folder.Fold over the shuffled buffer.
	fanout := in.k
	if fanout < 2 {
		fanout = 2
	}
	plan, err := streambuf.NewPlan(in.k, fanout)
	if err != nil {
		return err
	}
	a := streambuf.New[core.Update[float32]](len(ups))
	b := streambuf.New[core.Update[float32]](len(ups))
	folder := core.NewUpdateFolder(split, benchThreads, add)
	var shufT, foldT time.Duration
	var passes int64
	start = time.Now()
	for time.Since(start) < 2*microTime {
		a.Fill(ups)
		t0 := time.Now()
		res := streambuf.Shuffle(a, b, plan, benchThreads, func(u core.Update[float32]) uint32 { return split.Of(u.Dst) })
		t1 := time.Now()
		if folder != nil {
			folder.Fold(res)
		}
		shufT += t1.Sub(t0)
		foldT += time.Since(t1)
		passes++
	}
	streamBytes := float64(passes) * float64(len(ups)) * 8
	rep.set("streambuf.shuffle_gbps", streamBytes/shufT.Seconds()/1e9)
	if folder != nil {
		rep.set("streambuf.fold_gbps", streamBytes/foldT.Seconds()/1e9)
	}

	rep.set("membench.seq_read_gbps", membench.SequentialRead(benchThreads, rooflineBytes, microTime).BPS/1e9)
	if in.dev != nil {
		gbps, err := deviceSeqRead(in.dev)
		if err != nil {
			return fmt.Errorf("device roofline: %w", err)
		}
		rep.set("storage.seq_read_gbps", gbps)
	}
	return nil
}

// deviceSeqRead writes a rooflineBytes file through dev and reads it back
// sequentially in 1 MiB requests for microTime, returning GB/s.
func deviceSeqRead(dev storage.Device) (float64, error) {
	const name = "perfbench-roofline"
	const unit = 1 << 20
	f, err := dev.Create(name)
	if err != nil {
		return 0, err
	}
	defer dev.Remove(name)
	defer f.Close()
	buf := make([]byte, unit)
	for i := range buf {
		buf[i] = byte(i)
	}
	for off := int64(0); off < rooflineBytes; off += unit {
		if _, err := f.WriteAt(buf, off); err != nil {
			return 0, err
		}
	}
	var n int64
	start := time.Now()
	for time.Since(start) < microTime {
		for off := int64(0); off < rooflineBytes; off += unit {
			m, err := f.ReadAt(buf, off)
			if err != nil {
				return 0, err
			}
			n += int64(m)
		}
	}
	return float64(n) / time.Since(start).Seconds() / 1e9, nil
}
