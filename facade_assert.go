package fubar

import (
	"fubar/internal/anneal"
	"fubar/internal/baseline"
	"fubar/internal/classify"
	"fubar/internal/core"
	"fubar/internal/ctrlplane"
	"fubar/internal/dsim"
	"fubar/internal/experiment"
	"fubar/internal/flowmodel"
	"fubar/internal/measure"
	"fubar/internal/metrics"
	"fubar/internal/mpls"
	"fubar/internal/scenario"
	"fubar/internal/sdnsim"
	"fubar/internal/topology"
	"fubar/internal/traffic"
	"fubar/internal/unit"
	"fubar/internal/utility"
)

// Compile-time facade-sync assertions: every re-exported type must stay
// assignable to (i.e. remain an alias of) its internal counterpart, and
// every re-exported constant must keep its internal value. If a facade
// declaration drifts from the internal package — an alias silently
// turned into a distinct defined type, a constant re-declared with the
// wrong value — one of these lines stops compiling. The doc-comment
// coverage test in facade_doc_test.go guards the other half of the
// contract.
var (
	_ unit.Bandwidth = Bandwidth(0)
	_ unit.Delay     = Delay(0)

	_ topology.Topology = Topology{}
	_ topology.NodeID   = NodeID(0)
	_ topology.LinkID   = LinkID(0)
	_ topology.Link     = Link{}
	_ topology.SRLG     = SRLG{}

	_ traffic.Matrix      = Matrix{}
	_ traffic.Aggregate   = Aggregate{}
	_ traffic.AggregateID = AggregateID(0)
	_ traffic.GenConfig   = GenConfig{}

	_ utility.Function = UtilityFunction{}
	_ utility.Curve    = Curve{}
	_ utility.Point    = CurvePoint{}
	_ utility.Class    = Class(0)

	_ flowmodel.Model      = Model{}
	_ flowmodel.Eval       = ModelEval{}
	_ flowmodel.Bundle     = Bundle{}
	_ flowmodel.Result     = ModelResult{}
	_ flowmodel.Base       = ModelBase{}
	_ flowmodel.DeltaStats = DeltaStats{}

	_ core.Options    = Options{}
	_ core.Solution   = Solution{}
	_ core.Snapshot   = Snapshot{}
	_ core.StopReason = StopReason(0)
	_ core.AltMode    = AltMode(0)
	_ core.BaseStats  = BaseStats{}

	_ baseline.Outcome          = BaselineOutcome{}
	_ baseline.UpperBoundResult = UpperBoundResult{}

	_ experiment.Config = ExperimentConfig{}

	_ scenario.Scenario      = Scenario{}
	_ scenario.Event         = ScenarioEvent{}
	_ scenario.EventKind     = ScenarioEventKind(0)
	_ scenario.Result        = ScenarioResult{}
	_ scenario.EpochResult   = EpochRecord{}
	_ scenario.InstallRecord = InstallRecord{}

	_ sdnsim.Sim           = Sim{}
	_ sdnsim.Config        = SimConfig{}
	_ sdnsim.EpochStats    = EpochStats{}
	_ measure.Estimator    = Estimator{}
	_ measure.AggregateKey = AggregateKey{}

	_ metrics.CDF = CDF{}

	_ anneal.Options        = AnnealOptions{}
	_ anneal.Solution       = AnnealSolution{}
	_ anneal.RestartsResult = AnnealRestartsResult{}

	_ classify.Classifier = Classifier{}
	_ classify.Options    = ClassifierOptions{}
	_ classify.Override   = ClassifierOverride{}
	_ classify.Features   = FlowFeatures{}
	_ classify.Decision   = ClassDecision{}

	_ dsim.Config     = DynConfig{}
	_ dsim.Result     = DynResult{}
	_ dsim.Validation = ModelValidation{}

	_ ctrlplane.Controller       = Controller{}
	_ ctrlplane.ControllerConfig = ControllerConfig{}
	_ ctrlplane.Agent            = SwitchAgent{}
	_ ctrlplane.AgentConfig      = SwitchAgentConfig{}
	_ ctrlplane.LoopConfig       = ControlLoopConfig{}
	_ ctrlplane.LoopResult       = ControlLoopResult{}
	_ ctrlplane.RetryPolicy      = RetryPolicy{}
	_ ctrlplane.FailPolicy       = FailPolicy(0)

	_ mpls.LSPDB     = LSPDB{}
	_ mpls.LSP       = LSP{}
	_ mpls.SyncStats = LSPSyncStats{}
	_ mpls.Priority  = LSPPriority(0)
)

// Constant-value assertions: indexing a one-element array with the
// difference of the facade and internal constants compiles only when
// the difference is exactly zero, so a shadowed or renumbered facade
// constant stops compiling here.
var (
	_ = [1]struct{}{}[StopNoCongestion-core.StopNoCongestion]
	_ = [1]struct{}{}[StopLocalOptimum-core.StopLocalOptimum]
	_ = [1]struct{}{}[StopMaxSteps-core.StopMaxSteps]
	_ = [1]struct{}{}[StopDeadline-core.StopDeadline]
	_ = [1]struct{}{}[StopCancelled-core.StopCancelled]

	_ = [1]struct{}{}[ClassRealTime-utility.ClassRealTime]
	_ = [1]struct{}{}[ClassBulk-utility.ClassBulk]
	_ = [1]struct{}{}[ClassLargeFile-utility.ClassLargeFile]

	_ = [1]struct{}{}[FailStatic-ctrlplane.FailStatic]
	_ = [1]struct{}{}[FailClosed-ctrlplane.FailClosed]
)
