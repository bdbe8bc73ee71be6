// Package legal implements the paper's Section 2.4: turning measured
// predicate-singling-out results into rigorous, falsifiable statements —
// "legal theorems" — about whether a privacy technology satisfies the
// GDPR requirement of preventing singling out (Recital 26), and comparing
// those verdicts with the Article 29 Working Party's Opinion on
// Anonymisation Techniques (Section 2.4.3).
//
// The logical structure mirrors the paper's modeling choices exactly:
// security against predicate singling out (PSO) is deliberately weaker
// than the GDPR's notion, so
//
//   - failing to prevent PSO implies failing the GDPR requirement
//     (a negative legal theorem, like Legal Theorem 2.1), while
//   - preventing PSO is necessary but NOT sufficient — the verdict is
//     "further analysis needed", never "satisfies the GDPR".
package legal

import (
	"fmt"
	"io"
	"strings"

	"singlingout/internal/pso"
)

// Verdict is the outcome of evaluating a technology against the
// preventing-singling-out requirement.
type Verdict int

// Verdicts, ordered from best to worst.
const (
	// PreventsPSO: every attack in the evidence stayed at its trivial
	// baseline. Necessary but not sufficient for GDPR anonymization.
	PreventsPSO Verdict = iota
	// FailsPSO: at least one attack singled out with a negligible-weight
	// predicate significantly above baseline. By the paper's argument
	// this implies failure of the GDPR requirement.
	FailsPSO
	// Inconclusive: the evidence is empty or every attack errored.
	Inconclusive
)

// String implements fmt.Stringer.
func (v Verdict) String() string {
	switch v {
	case PreventsPSO:
		return "prevents predicate singling out"
	case FailsPSO:
		return "FAILS to prevent predicate singling out"
	default:
		return "inconclusive"
	}
}

// GDPRConclusion renders the legal consequence of the verdict under the
// paper's logic of weakened requirements.
func (v Verdict) GDPRConclusion() string {
	switch v {
	case PreventsPSO:
		return "necessary condition met; further analysis needed for the GDPR anonymization standard"
	case FailsPSO:
		return "does NOT meet the GDPR standard for anonymization (singling out not prevented)"
	default:
		return "no determination possible"
	}
}

// Claim is one evidence-backed legal theorem.
type Claim struct {
	// Technology names the privacy measure evaluated (e.g. "k-anonymity
	// (Mondrian, k=5)").
	Technology string
	// Standard is the legal requirement evaluated against.
	Standard string
	// Verdict is the measured outcome.
	Verdict Verdict
	// Evidence holds the experiment results the verdict rests on.
	Evidence []pso.Result
	// Reasoning summarizes why the evidence supports the verdict.
	Reasoning string
}

// Evaluate derives the verdict for a technology from a suite of PSO
// experiment results. The quantifier matches Definition 2.4: the
// technology fails if ANY attacker succeeds (existential), and prevents
// PSO only if every attacker stayed at baseline.
func Evaluate(technology string, evidence []pso.Result) Claim {
	c := Claim{
		Technology: technology,
		Standard:   "GDPR Recital 26: prevention of singling out",
		Evidence:   evidence,
	}
	if len(evidence) == 0 {
		c.Verdict = Inconclusive
		c.Reasoning = "no experiments supplied"
		return c
	}
	usable := 0
	for _, r := range evidence {
		if r.AttackErrors == r.Trials {
			continue
		}
		usable++
		if !r.PreventsPSO() {
			c.Verdict = FailsPSO
			c.Reasoning = fmt.Sprintf(
				"attacker %q singled out in %.1f%% of trials with mean predicate weight %.3g (trivial baseline %.3g)",
				r.Attacker, 100*r.SuccessRate(), r.MeanNominalWeight, r.BaselineRate)
			return c
		}
	}
	if usable == 0 {
		c.Verdict = Inconclusive
		c.Reasoning = "every attack errored; no usable evidence"
		return c
	}
	c.Verdict = PreventsPSO
	c.Reasoning = fmt.Sprintf("all %d attacks stayed within the trivial-baseline band", usable)
	return c
}

// WorkingPartyRow is one row of the Section 2.4.3 comparison: the Article
// 29 Working Party's answer to "Is singling out still a risk?" for a
// technology, next to this library's measured verdict.
type WorkingPartyRow struct {
	Technology string
	// WPAnswer is the Working Party's published answer (Opinion 05/2014,
	// table on p. 24): "no" means they consider the risk eliminated.
	WPAnswer string
	// Measured is this library's verdict.
	Measured Verdict
	// Agrees reports whether the WP's answer is consistent with the
	// measured verdict ("no risk" is consistent only with PreventsPSO;
	// "may not"/"yes" is consistent with either).
	Agrees bool
}

// WorkingPartyAnswers records the published WP table entries for the
// technologies this library evaluates.
var WorkingPartyAnswers = map[string]string{
	"k-anonymity":          "no",      // WP: singling out no longer a risk
	"l-diversity":          "no",      // WP: singling out no longer a risk
	"t-closeness":          "no",      // WP: singling out no longer a risk
	"differential privacy": "may not", // WP: may not be a risk
}

// CompareWithWorkingParty builds the comparison table from measured
// verdicts keyed by the technology names in WorkingPartyAnswers.
func CompareWithWorkingParty(measured map[string]Verdict) []WorkingPartyRow {
	order := []string{"k-anonymity", "l-diversity", "t-closeness", "differential privacy"}
	var rows []WorkingPartyRow
	for _, tech := range order {
		v, ok := measured[tech]
		if !ok {
			continue
		}
		wp := WorkingPartyAnswers[tech]
		rows = append(rows, WorkingPartyRow{
			Technology: tech,
			WPAnswer:   wp,
			Measured:   v,
			// "no" (risk eliminated) conflicts with a measured failure;
			// hedged answers never conflict.
			Agrees: !(wp == "no" && v == FailsPSO),
		})
	}
	return rows
}

// Report renders claims and the Working Party comparison as a formatted
// text report (the output of cmd/legalreport).
func Report(w io.Writer, claims []Claim, comparison []WorkingPartyRow) error {
	p := func(format string, args ...any) error {
		_, err := fmt.Fprintf(w, format, args...)
		return err
	}
	if err := p("LEGAL THEOREMS — measured verdicts on preventing singling out (GDPR Recital 26)\n"); err != nil {
		return err
	}
	if err := p("%s\n\n", strings.Repeat("=", 80)); err != nil {
		return err
	}
	for i, c := range claims {
		if err := p("Claim %d. %s — %s.\n", i+1, c.Technology, c.Verdict); err != nil {
			return err
		}
		if err := p("  Standard:   %s\n", c.Standard); err != nil {
			return err
		}
		if err := p("  Conclusion: %s\n", c.Verdict.GDPRConclusion()); err != nil {
			return err
		}
		if err := p("  Reasoning:  %s\n", c.Reasoning); err != nil {
			return err
		}
		for _, r := range c.Evidence {
			if err := p("    evidence: %s\n", r); err != nil {
				return err
			}
		}
		if err := p("\n"); err != nil {
			return err
		}
	}
	if len(comparison) == 0 {
		return nil
	}
	if err := p("Comparison with Article 29 Working Party, Opinion 05/2014 (\"Is singling out still a risk?\")\n"); err != nil {
		return err
	}
	if err := p("%-22s %-10s %-45s %s\n", "technology", "WP answer", "measured verdict", "consistent?"); err != nil {
		return err
	}
	for _, row := range comparison {
		mark := "yes"
		if !row.Agrees {
			mark = "NO — the Working Party's assessment is contradicted"
		}
		if err := p("%-22s %-10s %-45s %s\n", row.Technology, row.WPAnswer, row.Measured, mark); err != nil {
			return err
		}
	}
	return nil
}
