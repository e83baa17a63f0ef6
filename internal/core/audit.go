package core

import (
	"fmt"

	"nbctune/internal/obs"
	"nbctune/internal/stats"
)

// Selection auditing: the built-in selectors can log every raw sample,
// filtered estimate, pruning step, and the final decision to an *obs.Audit,
// so a tuning outcome is reproducible by hand from the artifact alone.
// Attaching an audit never changes what the selector decides.

// auditable is implemented by selectors that can log to an audit.
type auditable interface{ setAudit(a *obs.Audit) }

// AttachAudit attaches a fresh selection-audit log to sel, naming the
// candidates after the function set's implementations. It returns the log,
// or nil when the selector does not support auditing (e.g. FixedSelector).
func AttachAudit(sel Selector, fs *FunctionSet) *obs.Audit {
	au, ok := sel.(auditable)
	if !ok {
		return nil
	}
	a := obs.NewAudit(sel.Name(), fs.FunctionNames())
	au.setAudit(a)
	return a
}

func (s *Search) setAudit(a *obs.Audit) {
	s.audit = a
	// The constructor opens the first stage before an audit can attach;
	// describe an in-flight screening stage so the log starts complete.
	if !s.decided && !s.deciding && s.phase != "" {
		a.Phase(s.phase)
	}
}

// auditEstimates logs the filtered estimate of every candidate at a decision
// point, including how many samples survived the outlier filter.
func auditEstimates(a *obs.Audit, store *measStore, cands []int) {
	if a == nil {
		return
	}
	for _, c := range cands {
		kept := len(stats.FilterOutliers(store.meas[c]))
		a.Estimate(c, store.score(c), fmt.Sprintf("kept %d/%d", kept, len(store.meas[c])))
	}
}
