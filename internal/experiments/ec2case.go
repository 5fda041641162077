package experiments

import (
	"fmt"

	"repro/internal/report"

	ec2env "repro/internal/ec2"
)

// figure12Result is Figure 12's curves, one per EC2 validation workload.
type figure12Result []curves

// figure12 regenerates the EC2 propagation curves: normalized execution
// time of the four validation workloads with 0-32 interfering VMs at each
// bubble pressure, under unmeasured background-tenant interference.
func (l *Lab) figure12() (figure12Result, error) {
	env, err := l.ec2Env()
	if err != nil {
		return nil, err
	}
	return l.propagationCurves(env, ec2env.Nodes, ec2env.InterferingCounts(), ec2env.ValidationWorkloads(), "Figure 12: %s on EC2 (32 VMs)")
}

func (r figure12Result) output() Output {
	return Output{
		ID:     "Figure 12",
		Title:  "EC2 propagation curves under uncontrolled background interference",
		Tables: tables(r),
		Notes: []string{
			"TestFigure12Shapes asserts two of Fig. 3's shapes on quick labs at seeds 1-10: every app slows more at",
			"the highest pressure than at the lowest, and M.Gems slows more with 24-32 interfering VMs than with 1-2.",
			"It does not assert the high-propagation jump at one VM, which fails at some seeds, nor that cells read",
			"at least 1.0: unmeasured tenant noise makes some read below 1.0, a spurious speed-up.",
		},
	}
}

// table6Result is each EC2 validation workload's policy search on EC2 and
// on the private cluster.
type table6Result struct{ ec2, private []appSelection }

// table6 regenerates the EC2 heterogeneity policy selection (100 samples
// per workload) with the expected accuracy degradation relative to the
// private cluster.
func (l *Lab) table6() (*table6Result, error) {
	r := &table6Result{}
	for _, name := range ec2env.ValidationWorkloads() {
		m, err := l.ec2Model(name)
		if err != nil {
			return nil, err
		}
		pm, err := l.Model(name)
		if err != nil {
			return nil, err
		}
		r.ec2 = append(r.ec2, appSelection{name, m.Selection})
		r.private = append(r.private, appSelection{name, pm.Selection})
	}
	return r, nil
}

func (r table6Result) output() Output {
	return Output{
		ID:     "Table 6",
		Title:  "Heterogeneity policies on EC2",
		Tables: []*report.Table{bestPolicyTable("Table 6: best heterogeneity mapping policy on EC2", r.ec2, nil)},
		Notes: []string{
			fmt.Sprintf("Mean best-policy error: EC2 %.2f%% vs. private cluster %.2f%% —",
				meanBestErr(r.ec2), meanBestErr(r.private)),
			"uncontrolled neighbours raise the error, as the paper reports.",
		},
	}
}

type figure13Result []appErrors

// figure13 regenerates the EC2 model validation: each of the four
// workloads co-run with the others, prediction error per application. As
// in Figure 8, the models are built first and all the pairs go through one
// measurement batch.
func (l *Lab) figure13() (figure13Result, error) {
	env, err := l.ec2Env()
	if err != nil {
		return nil, err
	}
	names := ec2env.ValidationWorkloads()
	cos, err := coRunners(env, names)
	if err != nil {
		return nil, err
	}
	each := make([][]coRunner, len(names))
	for i := range names {
		for k, co := range cos {
			if k != i {
				each[i] = append(each[i], co)
			}
		}
	}
	pairs, err := validate(env, l.ec2Model, names, each, ec2env.Nodes)
	if err != nil {
		return nil, err
	}
	return summarize(names, pairs)
}

func (r figure13Result) output() Output {
	tb := report.NewTable("Figure 13: EC2 validation error per application",
		"workload", "avg error(%)", "max error(%)")
	for _, row := range r {
		tb.MustAddRow(row.app, report.F(row.errs.Mean, 2), report.F(row.errs.Max, 2))
	}
	return Output{
		ID:     "Figure 13",
		Title:  "EC2 model validation",
		Tables: []*report.Table{tb},
		Notes: []string{
			"Expected range: mid single digits to ~10% — higher than the private cluster",
			"because background interference is present but invisible to the model.",
		},
	}
}
