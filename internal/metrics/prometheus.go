package metrics

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"github.com/virtualpartitions/vp/internal/model"
)

// This file renders a Registry in the Prometheus text exposition format
// (version 0.0.4), without depending on any client library. Counter
// names are namespaced under vp_ and sanitized; per-kind message
// counters ("net.msg.sent.<kind>") become a kind label on the base
// series; distributions are rendered as summaries with quantile labels.

// promName sanitizes a registry name into a Prometheus metric name:
// every character outside [a-zA-Z0-9_] becomes '_', and the whole name
// is prefixed with "vp_".
func promName(name string) string {
	var b strings.Builder
	b.Grow(len(name) + 3)
	b.WriteString("vp_")
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_':
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// labeledFamilies maps counter-name prefixes to series that carry the
// suffix as a kind label instead of baking it into the metric name, so
// Prometheus can aggregate across kinds.
var labeledFamilies = []string{CMsgSent, CMsgDelivered, CMsgDropped}

// splitKind returns the family and kind label for a counter name, or
// (name, "") when the counter is not a per-kind sub-series.
func splitKind(name string) (family, kind string) {
	for _, f := range labeledFamilies {
		if strings.HasPrefix(name, f+".") {
			return f, name[len(f)+1:]
		}
	}
	return name, ""
}

// WritePrometheus renders every counter and distribution in the text
// exposition format. Output is sorted by metric name, so scrapes are
// stable and diffable.
func (r *Registry) WritePrometheus(w io.Writer) error {
	counters := r.Counters()

	type series struct {
		kind string
		val  int64
	}
	families := make(map[string][]series)
	for name, v := range counters {
		fam, kind := splitKind(name)
		families[fam] = append(families[fam], series{kind: kind, val: v})
	}
	for _, fam := range model.SortedKeys(families) {
		pn := promName(fam)
		if _, err := fmt.Fprintf(w, "# TYPE %s counter\n", pn); err != nil {
			return err
		}
		ss := families[fam]
		sort.Slice(ss, func(i, j int) bool { return ss[i].kind < ss[j].kind })
		for _, s := range ss {
			var err error
			if s.kind == "" {
				_, err = fmt.Fprintf(w, "%s %d\n", pn, s.val)
			} else {
				_, err = fmt.Fprintf(w, "%s{kind=%q} %d\n", pn, s.kind, s.val)
			}
			if err != nil {
				return err
			}
		}
	}

	for _, name := range r.SampleNames() {
		sum := r.Samples(name)
		if sum.Count == 0 {
			continue
		}
		pn := promName(name)
		if _, err := fmt.Fprintf(w, "# TYPE %s summary\n", pn); err != nil {
			return err
		}
		for _, q := range []struct {
			label string
			val   float64
		}{{"0.5", sum.P50}, {"0.95", sum.P95}, {"0.99", sum.P99}} {
			if _, err := fmt.Fprintf(w, "%s{quantile=%q} %g\n", pn, q.label, q.val); err != nil {
				return err
			}
		}
		// The sum is reconstructed from the (possibly reservoir-estimated)
		// mean; exact below the sample cap.
		if _, err := fmt.Fprintf(w, "%s_sum %g\n%s_count %d\n", pn, sum.Mean*float64(sum.Count), pn, sum.Count); err != nil {
			return err
		}
	}
	return nil
}
