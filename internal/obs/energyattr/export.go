package energyattr

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"ecldb/internal/units"
)

// This file is the meter's serialization boundary: the ASCII breakdown
// report (eclsim -eattr) and the JSONL export folded into the
// determinism digest. Both render in fixed, index-ordered sequences —
// no map iteration anywhere near the output.

// appendF renders a float the way the obs JSONL encoder does: shortest
// round-trip representation, bit-faithful for the digest.
func appendF(buf []byte, f float64) []byte {
	return strconv.AppendFloat(buf, f, 'g', -1, 64)
}

// WriteJSONL writes the attribution state as one JSON object per line:
// per-socket-per-domain conservation records, per-class aggregates,
// per-query energy spans, the reconfiguration audit ledger, and a
// summary. Timestamps are virtual nanoseconds.
func (m *Meter) WriteJSONL(w io.Writer) error {
	if m == nil {
		return nil
	}
	buf := make([]byte, 0, 256)
	flush := func() error {
		buf = append(buf, '\n')
		_, err := w.Write(buf)
		buf = buf[:0]
		return err
	}
	for s := range m.socks {
		for d := 0; d < NumDomains; d++ {
			buf = append(buf, `{"type":"domain","socket":`...)
			buf = strconv.AppendInt(buf, int64(s), 10)
			buf = append(buf, `,"domain":"`...)
			buf = append(buf, DomainName(d)...)
			buf = append(buf, `","integrated_j":`...)
			buf = appendF(buf, m.Integrated(s, d).Joules())
			buf = append(buf, `,"queries_j":`...)
			buf = appendF(buf, m.QueriesJ(s, d).Joules())
			for k := Kind(0); k < numKinds; k++ {
				buf = append(buf, `,"ctl_`...)
				buf = append(buf, strings.ReplaceAll(k.String(), "-", "_")...)
				buf = append(buf, `_j":`...)
				buf = appendF(buf, m.ControlKindJ(s, d, k).Joules())
			}
			buf = append(buf, `,"residual_j":`...)
			buf = appendF(buf, m.ResidualJ(s, d).Joules())
			buf = append(buf, '}')
			if err := flush(); err != nil {
				return err
			}
		}
	}
	for i := range m.classes {
		c := &m.classes[i]
		buf = append(buf, `{"type":"class","class":`...)
		buf = strconv.AppendQuote(buf, c.Name)
		buf = append(buf, `,"queries":`...)
		buf = strconv.AppendUint(buf, c.Queries, 10)
		buf = append(buf, `,"ops":`...)
		buf = strconv.AppendUint(buf, c.Ops, 10)
		buf = append(buf, `,"energy_j":`...)
		buf = appendF(buf, c.EnergyJ.Joules())
		buf = append(buf, `,"j_per_query":`...)
		buf = appendF(buf, c.EnergyJ.PerQuery(c.Queries).Joules())
		buf = append(buf, `,"j_per_op":`...)
		buf = appendF(buf, c.EnergyJ.PerOp(c.Ops).Joules())
		buf = append(buf, `,"violated_queries":`...)
		buf = strconv.AppendUint(buf, c.ViolatedQueries, 10)
		buf = append(buf, `,"violated_j":`...)
		buf = appendF(buf, c.ViolatedJ.Joules())
		buf = append(buf, `,"dropped_queries":`...)
		buf = strconv.AppendUint(buf, c.DroppedQueries, 10)
		buf = append(buf, `,"dropped_j":`...)
		buf = appendF(buf, c.DroppedJ.Joules())
		buf = append(buf, '}')
		if err := flush(); err != nil {
			return err
		}
	}
	for i := range m.spans {
		sp := &m.spans[i]
		buf = append(buf, `{"type":"span","qid":`...)
		buf = strconv.AppendUint(buf, sp.QID, 10)
		buf = append(buf, `,"class":`...)
		buf = strconv.AppendQuote(buf, sp.Class)
		buf = append(buf, `,"submitted_ns":`...)
		buf = strconv.AppendInt(buf, units.Virtual(sp.Submitted).Nanos(), 10)
		buf = append(buf, `,"done_ns":`...)
		buf = strconv.AppendInt(buf, units.Virtual(sp.Done).Nanos(), 10)
		buf = append(buf, `,"ops":`...)
		buf = strconv.AppendInt(buf, int64(sp.Ops), 10)
		buf = append(buf, `,"energy_j":`...)
		buf = appendF(buf, sp.EnergyJ.Joules())
		buf = append(buf, `,"violated":`...)
		buf = strconv.AppendBool(buf, sp.Violated)
		buf = append(buf, '}')
		if err := flush(); err != nil {
			return err
		}
	}
	for i := range m.ledger {
		r := &m.ledger[i]
		buf = append(buf, `{"type":"reconfig","socket":`...)
		buf = strconv.AppendInt(buf, int64(r.Socket), 10)
		buf = append(buf, `,"key":`...)
		buf = strconv.AppendQuote(buf, r.Key)
		buf = append(buf, `,"start_ns":`...)
		buf = strconv.AppendInt(buf, units.Virtual(r.Start).Nanos(), 10)
		buf = append(buf, `,"end_ns":`...)
		buf = strconv.AppendInt(buf, units.Virtual(r.End).Nanos(), 10)
		buf = append(buf, `,"measured_j":`...)
		buf = appendF(buf, r.MeasuredJ.Joules())
		buf = append(buf, `,"baseline_j":`...)
		buf = appendF(buf, r.BaselineJ.Joules())
		buf = append(buf, '}')
		if err := flush(); err != nil {
			return err
		}
	}
	buf = append(buf, `{"type":"summary","integrated_j":`...)
	buf = appendF(buf, m.IntegratedTotalJ().Joules())
	buf = append(buf, `,"queries_j":`...)
	buf = appendF(buf, m.QueriesTotalJ().Joules())
	buf = append(buf, `,"control_j":`...)
	buf = appendF(buf, m.ControlTotalJ().Joules())
	buf = append(buf, `,"residual_j":`...)
	buf = appendF(buf, m.ResidualTotalJ().Joules())
	buf = append(buf, `,"baseline_j":`...)
	buf = appendF(buf, m.BaselineTotalJ().Joules())
	buf = append(buf, `,"saved_j":`...)
	buf = appendF(buf, m.SavedJ().Joules())
	buf = append(buf, `,"queries":`...)
	buf = strconv.AppendUint(buf, m.histN, 10)
	buf = append(buf, `,"p50_j":`...)
	buf = appendF(buf, m.Quantile(0.50).Joules())
	buf = append(buf, `,"p95_j":`...)
	buf = appendF(buf, m.Quantile(0.95).Joules())
	buf = append(buf, `,"p99_j":`...)
	buf = appendF(buf, m.Quantile(0.99).Joules())
	buf = append(buf, '}')
	return flush()
}

// Report renders the ASCII energy-breakdown table eclsim -eattr prints:
// the per-socket partition, the per-class efficiency table, the
// per-query percentiles, and the counterfactual savings line.
func (m *Meter) Report() string {
	if m == nil {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "ENERGY ATTRIBUTION (%d sockets)\n", len(m.socks))
	fmt.Fprintf(&b, "%-6s %-8s %12s %12s %12s %12s %12s %12s %12s\n",
		"socket", "domain", "integrated", "queries", "loop", "settle", "discovery", "rti-sleep", "residual")
	for s := range m.socks {
		for d := 0; d < NumDomains; d++ {
			fmt.Fprintf(&b, "%-6d %-8s %11.2fJ %11.2fJ %11.2fJ %11.2fJ %11.2fJ %11.2fJ %11.2fJ\n",
				s, DomainName(d),
				m.Integrated(s, d).Joules(),
				m.QueriesJ(s, d).Joules(),
				m.ControlKindJ(s, d, KindLoop).Joules(),
				m.ControlKindJ(s, d, KindSettle).Joules(),
				m.ControlKindJ(s, d, KindDiscovery).Joules(),
				m.ControlKindJ(s, d, KindRTISleep).Joules(),
				m.ResidualJ(s, d).Joules())
		}
	}
	fmt.Fprintf(&b, "%-6s %-8s %11.2fJ %11.2fJ %11.2fJ %11.2fJ %11.2fJ %11.2fJ %11.2fJ\n",
		"total", "all",
		m.IntegratedTotalJ().Joules(),
		m.QueriesTotalJ().Joules(),
		m.kindTotal(KindLoop).Joules(),
		m.kindTotal(KindSettle).Joules(),
		m.kindTotal(KindDiscovery).Joules(),
		m.kindTotal(KindRTISleep).Joules(),
		m.ResidualTotalJ().Joules())
	if len(m.classes) > 0 {
		fmt.Fprintf(&b, "\n%-14s %10s %12s %12s %14s %14s %10s\n",
			"class", "queries", "ops", "energy", "J/query", "J/op", "violated")
		for i := range m.classes {
			c := &m.classes[i]
			fmt.Fprintf(&b, "%-14s %10d %12d %11.2fJ %14.6g %14.6g %9.1f%%\n",
				c.Name, c.Queries, c.Ops, c.EnergyJ.Joules(),
				c.EnergyJ.PerQuery(c.Queries).Joules(),
				c.EnergyJ.PerOp(c.Ops).Joules(),
				pct(c.ViolatedQueries, c.Queries))
			if c.DroppedQueries > 0 {
				fmt.Fprintf(&b, "%-14s %10d %12s %11.2fJ (dropped mid-flight at a workload switch)\n",
					"  dropped", c.DroppedQueries, "-", c.DroppedJ.Joules())
			}
		}
	}
	if m.histN > 0 {
		fmt.Fprintf(&b, "\nper-query energy (n=%d): p50 %.6g J  p95 %.6g J  p99 %.6g J\n",
			m.histN, m.Quantile(0.50).Joules(), m.Quantile(0.95).Joules(), m.Quantile(0.99).Joules())
	}
	if n := len(m.ledger); n > 0 {
		fmt.Fprintf(&b, "\naudit ledger (%d reconfigurations, last %d shown):\n", n, minInt(n, 8))
		fmt.Fprintf(&b, "%-6s %-26s %12s %12s %12s %12s\n",
			"socket", "config", "from", "to", "measured", "baseline")
		for _, r := range m.ledger[n-minInt(n, 8):] {
			fmt.Fprintf(&b, "%-6d %-26s %12s %12s %11.2fJ %11.2fJ\n",
				r.Socket, r.Key, fmtDur(r.Start), fmtDur(r.End),
				r.MeasuredJ.Joules(), r.BaselineJ.Joules())
		}
	}
	if m.HasBaseline() {
		base := m.BaselineTotalJ()
		saved := m.SavedJ()
		pctSaved := 0.0
		if base > 0 {
			pctSaved = saved.Div(base) * 100
		}
		fmt.Fprintf(&b, "\nsaved vs always-max baseline: %.2f J of %.2f J (%.1f%%)\n",
			saved.Joules(), base.Joules(), pctSaved)
	}
	return b.String()
}

// kindTotal sums one control kind over sockets and domains.
func (m *Meter) kindTotal(k Kind) units.Joule {
	var t int64
	for s := range m.socks {
		for d := 0; d < NumDomains; d++ {
			t += m.socks[s].ctl[k][d]
		}
	}
	return units.NanojoulesOf(t)
}

func pct(part, whole uint64) float64 {
	if whole == 0 {
		return 0
	}
	return float64(part) / float64(whole) * 100
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// fmtDur renders a virtual instant compactly for the ledger table.
func fmtDur(d time.Duration) string {
	return d.Truncate(time.Millisecond).String()
}
