package main

import (
	"sort"
	"time"
)

// metric is one reported number. N is the sample count behind it where
// that applies (latency percentiles), Pct the percentile actually read
// for a tail metric.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
	Pct   float64 `json:"pct,omitempty"`
}

// minLatencySamples is the fewest samples of an operation type for its
// median to be reported.
const minLatencySamples = 100

// window is what the load generator saw between two instants of a run.
type window struct {
	seconds    float64
	attempted  int64 // requests due inside the window
	failed     int64 // refused, shed, timed out or otherwise not committed
	committed  int64
	withinSLO  int64     // committed within sloLimit of their due time
	readMS     []float64 // sorted latencies of committed reads, from due time
	writeMS    []float64 // sorted latencies of committed writes, from due time
	lateMS     []float64 // sorted generator lateness: send time − due time
	completed  int64     // requests whose commit completed inside the window, whenever they were due
	commitDone []int64   // sorted completion times of committed requests (ns since load start)
	perShard   map[int]int64
}

// summarize reduces the clients' samples to the window [w0, w1)
// (nanoseconds since load start). A request belongs to the window when
// it was due inside it; its latency runs from the due time, so in open
// loop a stall charges every request due while it lasted. shardOf may be
// nil.
func summarize(clients []*client, w0, w1 int64, shardOf func(int) int) window {
	w := window{seconds: float64(w1-w0) / float64(time.Second)}
	if shardOf != nil {
		w.perShard = make(map[int]int64)
	}
	for _, c := range clients {
		for _, s := range c.samples {
			if s.Out == committed && s.Done >= w0 && s.Done < w1 {
				w.completed++
			}
			if s.Due < w0 || s.Due >= w1 {
				continue
			}
			w.attempted++
			w.lateMS = append(w.lateMS, float64(s.Sent-s.Due)/1e6)
			if s.Out != committed {
				w.failed++
				continue
			}
			w.committed++
			w.commitDone = append(w.commitDone, s.Done)
			lat := s.Done - s.Due
			if lat <= int64(sloLimit) {
				w.withinSLO++
			}
			if s.Req.Kind.isWrite() {
				w.writeMS = append(w.writeMS, float64(lat)/1e6)
			} else {
				w.readMS = append(w.readMS, float64(lat)/1e6)
			}
			if shardOf != nil {
				w.perShard[shardOf(int(s.Req.A))]++
			}
		}
	}
	sort.Float64s(w.readMS)
	sort.Float64s(w.writeMS)
	sort.Float64s(w.lateMS)
	sort.Slice(w.commitDone, func(i, j int) bool { return w.commitDone[i] < w.commitDone[j] })
	return w
}

// endToEnd derives the user-visible metrics of a window. tps counts the
// commits that completed inside the window. Latency medians and tails are
// per operation type (a mixed median sits between two modes and says
// nothing) and are omitted below minLatencySamples.
func (w window) endToEnd() map[string]metric {
	m := map[string]metric{
		"tps":         {Value: float64(w.completed) / w.seconds, Unit: "1/s", N: int(w.completed)},
		"slo_frac":    {Value: frac(w.withinSLO, w.attempted), Unit: "fraction", N: int(w.attempted)},
		"failed_frac": {Value: frac(w.failed, w.attempted), Unit: "fraction", N: int(w.attempted)},
	}
	for _, t := range []struct {
		name string
		ms   []float64
	}{{"read", w.readMS}, {"write", w.writeMS}} {
		if len(t.ms) < minLatencySamples {
			continue
		}
		m[t.name+"_p50_ms"] = metric{Value: sortedMedian(t.ms), Unit: "ms", N: len(t.ms)}
		if pct, v, ok := tailPercentile(t.ms); ok {
			m[t.name+"_p99_ms"] = metric{Value: v, Unit: "ms", N: len(t.ms), Pct: pct}
		}
	}
	if n := len(w.lateMS); n > 0 {
		m["generator_late_p50_ms"] = metric{Value: sortedMedian(w.lateMS), Unit: "ms", N: n}
		m["generator_late_max_ms"] = metric{Value: w.lateMS[n-1], Unit: "ms", N: n}
	}
	return m
}

func frac(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// longestGap returns the longest stretch inside [from, to) during which
// no request committed, in milliseconds: the outage a fault caused.
func (w window) longestGap(from, to int64) float64 {
	prev, longest := from, int64(0)
	i := sort.Search(len(w.commitDone), func(i int) bool { return w.commitDone[i] >= from })
	for ; i < len(w.commitDone) && w.commitDone[i] < to; i++ {
		if g := w.commitDone[i] - prev; g > longest {
			longest = g
		}
		prev = w.commitDone[i]
	}
	if g := to - prev; g > longest {
		longest = g
	}
	return float64(longest) / 1e6
}
