package watch

import (
	"errors"
	"fmt"
	"log/slog"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/streaming"
)

// Alert states. Lifecycle: a breaching evaluation opens a pending alert;
// Rule.For consecutive breaches promote it to firing; a clean evaluation
// cancels a pending alert silently and resolves a firing one into the
// bounded resolved history.
const (
	StatePending  = "pending"
	StateFiring   = "firing"
	StateResolved = "resolved"
)

// Alert is one detector verdict, JSON-shaped for the
// /api/v1/analytics/alerts payload. Record indices — not timestamps —
// anchor the lifecycle so seeded replays produce identical alerts.
type Alert struct {
	Rule      string  `json:"rule"`
	Kind      string  `json:"kind"`
	Subject   string  `json:"subject"`
	State     string  `json:"state"`
	Value     float64 `json:"value"`
	Threshold float64 `json:"threshold"`
	Message   string  `json:"message"`
	// PendingAtRecords is the applied-record count at the first breach.
	PendingAtRecords int64 `json:"pending_at_records"`
	// FiredAtRecords is set once the alert reaches firing.
	FiredAtRecords int64 `json:"fired_at_records,omitempty"`
	// ResolvedAtRecords is set once a firing alert clears.
	ResolvedAtRecords int64 `json:"resolved_at_records,omitempty"`
}

// Snapshot is the full monitor state served by the alerts route.
type Snapshot struct {
	Records  int64   `json:"records"`
	Evals    int64   `json:"evals"`
	Rules    int     `json:"rules"`
	Firing   int     `json:"firing"`
	Pending  int     `json:"pending"`
	Resolved int     `json:"resolved"`
	Alerts   []Alert `json:"alerts"`
}

// Config parameterizes New.
type Config struct {
	// Engine supplies the live analytics snapshots and the per-batch
	// observer hook that drives evaluation. Required.
	Engine *streaming.Engine
	// Registry is both the source error-budget rules read from and the
	// sink the monitor's own watch_* metrics register on; nil uses
	// obs.Default.
	Registry *obs.Registry
	// Rules is the rule table; nil uses DefaultRules().
	Rules []Rule
	// History bounds the resolved-alert history (default 32).
	History int
	// Logger receives fire/resolve events; nil disables logging.
	Logger *slog.Logger
	// OnTransition, when set, receives every user-visible alert state
	// change: (alert, "", "pending") when a breach opens an alert,
	// (alert, "pending", "firing") on promotion, and (alert, "firing",
	// "resolved") when a firing alert clears. Cancelled pending alerts
	// stay silent, matching the lifecycle. The hook runs on the observing
	// goroutine but outside the monitor's lock, after the evaluation pass
	// that produced the transition — calling back into Snapshot/Alerts
	// from the hook is safe. Heavy work should still be handed off to
	// another goroutine to keep the ingest path fast.
	//
	// Delivery is read-after-Sync: once streaming.Engine.Sync returns,
	// every transition produced by the records it covers has been
	// delivered to the hook, exactly once and in production order (the
	// engine counts a batch applied only after its observer call, which
	// delivers the batch's transitions, returns). Order holds across
	// batches applied by one goroutine at a time, as the engine's queue
	// consumer applies them.
	OnTransition func(alert Alert, from, to string)
}

// ewmaState is one subject's running mean/variance.
type ewmaState struct {
	n    int
	mean float64
	vari float64
}

// churnState is one subject's previous cluster/user/record position.
type churnState struct {
	seen     bool
	clusters int
	users    int
	records  int64
}

// budgetState is one rule's previous counter sums.
type budgetState struct {
	seen   bool
	errors float64
	total  float64
}

// divState is one render-divergence rule's previous counter position. The
// baseline starts at zero (not "unseen"): divergences that happened before
// the monitor attached still fire on the first evaluation.
type divState struct {
	prev float64
}

// alertState is one live (pending or firing) alert plus its breach run.
type alertState struct {
	alert    Alert
	breaches int
}

// transition is one queued OnTransition delivery: state changes are
// collected under the lock and delivered after it is released.
type transition struct {
	alert    Alert
	from, to string
}

// ruleState is one rule's evaluation cursor and per-subject detectors.
type ruleState struct {
	rule     Rule
	lastEval int64
	ewma     map[string]*ewmaState
	churn    map[string]*churnState
	budget   budgetState
	div      divState
}

// sigmaFloor keeps the z-score finite on flat history: a perfectly
// stable series (variance 0) still needs a meaningful "how far below"
// denominator, and 0.005 normalized-entropy units is well under any real
// population's jitter.
const sigmaFloor = 0.005

// Monitor evaluates the rule table against the engine and registry.
// Create with New; it installs itself as the engine's batch observer, so
// evaluation rides the applying goroutine — deterministic under Apply
// replays. All methods are safe for concurrent use.
type Monitor struct {
	engine *streaming.Engine
	reg    *obs.Registry
	logger *slog.Logger
	hist   int

	mEvals *obs.Counter

	// nFiring/nPending shadow the active-alert states as atomics so the
	// registry's GaugeFuncs can read them without m.mu — the registry is
	// snapshotted by evalBudget while m.mu is held, and a mutex-taking
	// gauge would deadlock against it.
	nFiring  atomic.Int64
	nPending atomic.Int64

	// hook is the OnTransition callback; atomic so SetTransitionHook can
	// install it after construction without racing Observe.
	hook atomic.Pointer[func(Alert, string, string)]

	mu       sync.Mutex
	rules    []*ruleState
	active   map[string]*alertState // key: rule "\x00" subject
	resolved []Alert                // oldest first, bounded by hist
	records  int64
	evals    int64
	// trans queues state changes produced under mu; Observe drains and
	// delivers them after unlocking, so a hook that calls back into the
	// monitor cannot deadlock.
	trans []transition
}

// New builds a Monitor over cfg.Engine and installs it as the engine's
// observer. Rules are validated (a name and a known kind are required);
// the returned monitor is already live.
func New(cfg Config) (*Monitor, error) {
	if cfg.Engine == nil {
		return nil, errors.New("watch: Config.Engine is required")
	}
	reg := cfg.Registry
	if reg == nil {
		reg = obs.Default
	}
	rules := cfg.Rules
	if rules == nil {
		rules = DefaultRules()
	}
	hist := cfg.History
	if hist <= 0 {
		hist = 32
	}
	m := &Monitor{
		engine: cfg.Engine,
		reg:    reg,
		logger: cfg.Logger,
		hist:   hist,
		active: make(map[string]*alertState),
	}
	for _, r := range rules {
		if r.Name == "" {
			return nil, errors.New("watch: rule without a name")
		}
		switch r.Kind {
		case KindEntropyCollapse, KindClusterChurn, KindErrorBudget, KindRenderDivergence:
		default:
			return nil, fmt.Errorf("watch: rule %q has unknown kind %q", r.Name, r.Kind)
		}
		r.normalize()
		m.rules = append(m.rules, &ruleState{
			rule:  r,
			ewma:  make(map[string]*ewmaState),
			churn: make(map[string]*churnState),
		})
	}
	m.mEvals = reg.Counter("watch_evals_total",
		"Rule evaluations run by the watch monitor.", nil)
	reg.GaugeFunc("watch_alerts_firing",
		"Alerts currently in the firing state.", nil,
		func() float64 { return float64(m.nFiring.Load()) })
	reg.GaugeFunc("watch_alerts_pending",
		"Alerts currently in the pending state.", nil,
		func() float64 { return float64(m.nPending.Load()) })
	if cfg.OnTransition != nil {
		m.SetTransitionHook(cfg.OnTransition)
	}
	cfg.Engine.SetObserver(m.Observe)
	return m, nil
}

// SetTransitionHook installs (or, with nil, removes) the OnTransition
// callback after construction. This breaks the chicken-and-egg between the
// monitor and a diag.Capturer that needs the monitor's snapshot: build the
// monitor first, then hand its hook to the capturer. Safe for concurrent
// use.
func (m *Monitor) SetTransitionHook(fn func(alert Alert, from, to string)) {
	if fn == nil {
		m.hook.Store(nil)
		return
	}
	m.hook.Store(&fn)
}

// RuleByName returns the named rule (normalized form) from the monitor's
// table. The table is immutable after New.
func (m *Monitor) RuleByName(name string) (Rule, bool) {
	for _, rs := range m.rules {
		if rs.rule.Name == name {
			return rs.rule, true
		}
	}
	return Rule{}, false
}

// Observe is the engine's per-batch hook: records is the total applied
// record count. Each rule whose Every-interval has elapsed since its last
// evaluation is evaluated once at this record index. State transitions
// produced by the pass are delivered to the OnTransition hook after the
// lock is released and before Observe returns, each exactly once and in
// the order the pass produced them. Because the engine counts a batch
// applied only after Observe returns, every transition of the records a
// streaming.Engine.Sync covers has been delivered once Sync returns.
func (m *Monitor) Observe(records int64) {
	trans := m.observeLocked(records)
	if len(trans) == 0 {
		return
	}
	if fn := m.hook.Load(); fn != nil {
		for _, t := range trans {
			(*fn)(t.alert, t.from, t.to)
		}
	}
}

func (m *Monitor) observeLocked(records int64) []transition {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.records = records
	for _, rs := range m.rules {
		if records-rs.lastEval < int64(rs.rule.Every) {
			continue
		}
		rs.lastEval = records
		m.evals++
		m.mEvals.Inc()
		switch rs.rule.Kind {
		case KindEntropyCollapse:
			m.evalEntropy(rs, records)
		case KindClusterChurn:
			m.evalChurn(rs, records)
		case KindErrorBudget:
			m.evalBudget(rs, records)
		case KindRenderDivergence:
			m.evalDivergence(rs, records)
		}
	}
	trans := m.trans
	m.trans = nil
	return trans
}

// evalEntropy z-scores each watched diversity row against its EWMA.
// Caller holds m.mu.
func (m *Monitor) evalEntropy(rs *ruleState, records int64) {
	snap := m.engine.Diversity()
	for _, row := range snap.Rows {
		if rs.rule.Vector != "" && row.Name != rs.rule.Vector {
			continue
		}
		if row.Users < 2 {
			continue // a 0/1-user row has no entropy to collapse
		}
		st, ok := rs.ewma[row.Name]
		if !ok {
			st = &ewmaState{}
			rs.ewma[row.Name] = st
		}
		x := row.Normalized
		breach := false
		var z float64
		if st.n >= rs.rule.MinSamples {
			sigma := math.Sqrt(st.vari)
			if sigma < sigmaFloor {
				sigma = sigmaFloor
			}
			z = (st.mean - x) / sigma
			breach = z > rs.rule.ZMax
		}
		if breach {
			m.breach(rs.rule, row.Name, records, z, rs.rule.ZMax, fmt.Sprintf(
				"normalized entropy %.4f fell %.1f floored sigma below EWMA %.4f",
				x, z, st.mean))
			// A collapsing value must not drag the baseline down with it:
			// the EWMA only absorbs evaluations it did not flag, so the
			// alert resolves when the series recovers, not when the mean
			// catches up with the failure.
			continue
		}
		m.clear(rs.rule, row.Name, records)
		diff := x - st.mean
		incr := rs.rule.Alpha * diff
		st.mean += incr
		st.vari = (1 - rs.rule.Alpha) * (st.vari + diff*incr)
		st.n++
	}
}

// evalChurn compares each watched cluster row against its previous
// position. Caller holds m.mu.
func (m *Monitor) evalChurn(rs *ruleState, records int64) {
	snap := m.engine.Clusters()
	for _, row := range snap.Rows {
		if rs.rule.Vector != "" && row.Vector != rs.rule.Vector {
			continue
		}
		st, ok := rs.churn[row.Vector]
		if !ok {
			st = &churnState{}
			rs.churn[row.Vector] = st
		}
		if st.seen {
			dRecords := snap.Records - st.records
			if dRecords < 1 {
				dRecords = 1
			}
			moves := math.Abs(float64(row.Clusters-st.clusters) - float64(row.Users-st.users))
			churn := moves / float64(dRecords)
			if churn > rs.rule.MaxChurn {
				m.breach(rs.rule, row.Vector, records, churn, rs.rule.MaxChurn, fmt.Sprintf(
					"cluster churn %.3f moves/record over last %d records (clusters %d, users %d)",
					churn, dRecords, row.Clusters, row.Users))
			} else {
				m.clear(rs.rule, row.Vector, records)
			}
		}
		st.seen = true
		st.clusters = row.Clusters
		st.users = row.Users
		st.records = snap.Records
	}
}

// evalBudget compares the registry's error/total counter deltas against
// the SLO burn-rate threshold. Caller holds m.mu.
func (m *Monitor) evalBudget(rs *ruleState, records int64) {
	var errSum, totSum float64
	for _, s := range m.reg.Snapshot() {
		if s.Name == rs.rule.ErrorMetric && labelsMatch(s.Labels, rs.rule.ErrorLabels) {
			errSum += s.Value
		}
		if s.Name == rs.rule.TotalMetric && labelsMatch(s.Labels, rs.rule.TotalLabels) {
			totSum += s.Value
		}
	}
	st := &rs.budget
	if st.seen {
		dErr := errSum - st.errors
		dTot := totSum - st.total
		if dTot > 0 {
			burn := (dErr / dTot) / (1 - rs.rule.SLO)
			if burn > rs.rule.MaxBurn {
				m.breach(rs.rule, rs.rule.Name, records, burn, rs.rule.MaxBurn, fmt.Sprintf(
					"error budget burning at %.1fx: %.0f errors over %.0f requests against SLO %.3g",
					burn, dErr, dTot, rs.rule.SLO))
			} else {
				m.clear(rs.rule, rs.rule.Name, records)
			}
		} else {
			m.clear(rs.rule, rs.rule.Name, records)
		}
	}
	st.seen = true
	st.errors = errSum
	st.total = totSum
}

// evalDivergence compares the shadow auditor's divergence counter against
// its previous position and breaches on any increase beyond the rule's
// tolerance (default 0: one confirmed mismatch fires). Caller holds m.mu.
func (m *Monitor) evalDivergence(rs *ruleState, records int64) {
	var sum float64
	for _, s := range m.reg.Snapshot() {
		if s.Name == rs.rule.DivergenceMetric {
			sum += s.Value
		}
	}
	st := &rs.div
	d := sum - st.prev
	if d < 0 {
		d = sum // counter reset: the new value bounds the new divergences
	}
	if d > rs.rule.MaxDivergences {
		m.breach(rs.rule, rs.rule.Name, records, d, rs.rule.MaxDivergences, fmt.Sprintf(
			"%.0f new engine divergences since last evaluation (%s total %.0f)",
			d, rs.rule.DivergenceMetric, sum))
	} else {
		m.clear(rs.rule, rs.rule.Name, records)
	}
	st.prev = sum
}

// queueTransition records one state change for post-unlock delivery.
// Caller holds m.mu. Nothing is queued when no hook is installed, so the
// hookless path stays allocation-free.
func (m *Monitor) queueTransition(a Alert, from, to string) {
	if m.hook.Load() == nil {
		return
	}
	m.trans = append(m.trans, transition{alert: a, from: from, to: to})
}

// labelsMatch reports whether have contains every key=value of want.
func labelsMatch(have, want map[string]string) bool {
	for k, v := range want {
		if have[k] != v {
			return false
		}
	}
	return true
}

// breach records one breaching evaluation for (rule, subject), advancing
// the pending→firing lifecycle. Caller holds m.mu.
func (m *Monitor) breach(r Rule, subject string, records int64, value, threshold float64, msg string) {
	key := r.Name + "\x00" + subject
	as, ok := m.active[key]
	if !ok {
		as = &alertState{alert: Alert{
			Rule: r.Name, Kind: r.Kind, Subject: subject,
			State: StatePending, PendingAtRecords: records,
		}}
		m.active[key] = as
		m.nPending.Add(1)
	}
	opened := !ok
	as.breaches++
	as.alert.Value = value
	as.alert.Threshold = threshold
	as.alert.Message = msg
	if opened {
		m.queueTransition(as.alert, "", StatePending)
	}
	if as.alert.State == StatePending && as.breaches >= r.For {
		as.alert.State = StateFiring
		as.alert.FiredAtRecords = records
		m.queueTransition(as.alert, StatePending, StateFiring)
		m.nPending.Add(-1)
		m.nFiring.Add(1)
		m.reg.Counter("watch_alerts_total",
			"Alerts that reached the firing state, by rule.",
			obs.Labels{"rule": r.Name}).Inc()
		if m.logger != nil {
			m.logger.Warn("alert firing", "rule", r.Name, "subject", subject,
				"value", value, "threshold", threshold, "records", records)
		}
	}
}

// clear records one clean evaluation for (rule, subject): a pending alert
// is cancelled, a firing one resolves into the history. Caller holds m.mu.
func (m *Monitor) clear(r Rule, subject string, records int64) {
	key := r.Name + "\x00" + subject
	as, ok := m.active[key]
	if !ok {
		return
	}
	delete(m.active, key)
	if as.alert.State != StateFiring {
		m.nPending.Add(-1)
		return // pending alerts cancel silently
	}
	m.nFiring.Add(-1)
	as.alert.State = StateResolved
	as.alert.ResolvedAtRecords = records
	m.queueTransition(as.alert, StateFiring, StateResolved)
	m.resolved = append(m.resolved, as.alert)
	if len(m.resolved) > m.hist {
		m.resolved = m.resolved[len(m.resolved)-m.hist:]
	}
	if m.logger != nil {
		m.logger.Info("alert resolved", "rule", r.Name, "subject", subject,
			"records", records)
	}
}

// Alerts returns the live alerts (sorted by rule then subject) followed
// by the resolved history, oldest first.
func (m *Monitor) Alerts() []Alert {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.alertsLocked()
}

func (m *Monitor) alertsLocked() []Alert {
	out := make([]Alert, 0, len(m.active)+len(m.resolved))
	for _, as := range m.active {
		out = append(out, as.alert)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Rule != out[j].Rule {
			return out[i].Rule < out[j].Rule
		}
		return out[i].Subject < out[j].Subject
	})
	return append(out, m.resolved...)
}

// Snapshot returns the monitor's full served state.
func (m *Monitor) Snapshot() Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	snap := Snapshot{
		Records:  m.records,
		Evals:    m.evals,
		Rules:    len(m.rules),
		Resolved: len(m.resolved),
		Alerts:   m.alertsLocked(),
	}
	for _, as := range m.active {
		switch as.alert.State {
		case StateFiring:
			snap.Firing++
		case StatePending:
			snap.Pending++
		}
	}
	return snap
}

// HealthText renders the plain-text /debug/health payload: a one-line
// verdict followed by one line per live alert.
func (m *Monitor) HealthText() string {
	snap := m.Snapshot()
	verdict := "ok"
	switch {
	case snap.Firing > 0:
		verdict = "firing"
	case snap.Pending > 0:
		verdict = "pending"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "status: %s\nrecords: %d\nevals: %d\nrules: %d\nfiring: %d\npending: %d\nresolved: %d\n",
		verdict, snap.Records, snap.Evals, snap.Rules, snap.Firing, snap.Pending, snap.Resolved)
	for _, a := range snap.Alerts {
		if a.State == StateResolved {
			continue
		}
		fmt.Fprintf(&b, "alert state=%s rule=%s subject=%q value=%.4f threshold=%.4f at=%d\n",
			a.State, a.Rule, a.Subject, a.Value, a.Threshold, a.PendingAtRecords)
	}
	return b.String()
}
