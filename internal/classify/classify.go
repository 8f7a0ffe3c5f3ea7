// Package classify assigns utility classes to traffic aggregates.
//
// The paper's introduction: "We classify traffic with crude heuristics
// supplemented by operator knowledge when that is available." This
// package is those heuristics. A Classifier decides an aggregate's class
// — and hence its utility function — from three sources, in priority
// order:
//
//  1. Operator overrides: §2.2 lets "the operator specify a non-default
//     delay curve for flows to a certain port or from a particular
//     server". Overrides match on endpoints and port ranges and may carry
//     a custom utility function.
//  2. Well-known ports: interactive/RTC ports map to real-time, transfer
//     ports to large-file, web to bulk.
//  3. Behavioural features measured from switch counters: steady low
//     per-flow rates look like real-time streams, sustained high rates
//     like large transfers, everything else like bulk/web.
//
// Every decision reports which source produced it and a rough confidence
// so callers can choose to defer low-confidence reclassification.
package classify

import (
	"fmt"
	"math"

	"fubar/internal/unit"
	"fubar/internal/utility"
)

// Features is what the measurement plane can observe about one aggregate
// without end-host cooperation.
type Features struct {
	// Port is the destination (server) transport port, 0 when unknown
	// or mixed.
	Port int
	// SrcName and DstName are the aggregate's POP names ("" = unknown).
	SrcName, DstName string
	// MeanRatePerFlow is the average observed per-flow bandwidth.
	MeanRatePerFlow unit.Bandwidth
	// RateCV is the coefficient of variation of the aggregate's rate
	// across measurement epochs: steady streams are low, bursty
	// transfers high. Negative means unknown.
	RateCV float64
	// Flows is the aggregate's approximate flow count.
	Flows int
	// CongestedFraction is the fraction of epochs the aggregate's path
	// was congested; rate-derived features mean less when high.
	CongestedFraction float64
}

// Source identifies which rule tier produced a decision.
type Source uint8

// Decision sources, strongest first.
const (
	SourceOverride Source = iota
	SourcePort
	SourceBehaviour
	SourceDefault
)

// String names the source.
func (s Source) String() string {
	switch s {
	case SourceOverride:
		return "override"
	case SourcePort:
		return "port"
	case SourceBehaviour:
		return "behaviour"
	case SourceDefault:
		return "default"
	default:
		return fmt.Sprintf("Source(%d)", uint8(s))
	}
}

// Decision is a classification outcome.
type Decision struct {
	Class utility.Class
	// Fn is the utility function to attach: the override's custom
	// function when present, otherwise the class default.
	Fn utility.Function
	// Confidence is a rough [0,1] score; overrides are 1, port matches
	// high, behavioural matches degrade with congestion.
	Confidence float64
	// Source tells which tier decided.
	Source Source
}

// Override is one operator-knowledge rule. Zero-valued fields match
// anything; a fully zero Override (plus a class) matches all traffic.
type Override struct {
	// SrcName and DstName match aggregate endpoints exactly;
	// "" matches any.
	SrcName, DstName string
	// PortLo and PortHi bound the matched destination port range,
	// inclusive. Both zero matches any port.
	PortLo, PortHi int
	// Class is the class to assign.
	Class utility.Class
	// Fn optionally replaces the class's default utility function
	// (e.g. a stricter delay curve for a latency-critical service).
	Fn *utility.Function
}

// matches reports whether the override covers the features.
func (o Override) matches(f Features) bool {
	if o.SrcName != "" && o.SrcName != f.SrcName {
		return false
	}
	if o.DstName != "" && o.DstName != f.DstName {
		return false
	}
	if o.PortLo != 0 || o.PortHi != 0 {
		if f.Port < o.PortLo || f.Port > o.PortHi {
			return false
		}
	}
	return true
}

// The behavioural tier's thresholds.
const (
	// realTimeMaxRate is the per-flow rate ceiling below which a steady
	// flow looks like a real-time stream: twice the Fig 1 peak.
	realTimeMaxRate = 100 * unit.Kbps
	// realTimeMaxCV is the rate-variation ceiling for the real-time
	// heuristic.
	realTimeMaxCV = 0.3
	// largeFileMinRate is the per-flow rate floor above which a flow
	// looks like a large transfer: half the smallest §3 large-aggregate
	// peak.
	largeFileMinRate = 500 * unit.Kbps
)

// wellKnownPorts maps transport ports with a strong class signal. Web
// ports are deliberately absent: web traffic is the bulk default.
var wellKnownPorts = map[int]utility.Class{
	// Interactive / real-time.
	5060:  utility.ClassRealTime, // SIP
	5061:  utility.ClassRealTime, // SIP-TLS
	3478:  utility.ClassRealTime, // STUN/TURN
	5349:  utility.ClassRealTime, // TURN-TLS
	1935:  utility.ClassRealTime, // RTMP
	10000: utility.ClassRealTime, // common RTP base
	22:    utility.ClassRealTime, // interactive SSH
	23:    utility.ClassRealTime, // telnet
	3389:  utility.ClassRealTime, // RDP
	5900:  utility.ClassRealTime, // VNC
	// Large transfers.
	20:   utility.ClassLargeFile, // FTP-DATA
	873:  utility.ClassLargeFile, // rsync
	445:  utility.ClassLargeFile, // SMB
	2049: utility.ClassLargeFile, // NFS
}

// Classifier decides aggregate classes. It is immutable after
// construction and safe for concurrent use.
type Classifier struct {
	overrides []Override
}

// New builds a classifier with the given operator overrides; earlier
// overrides win. An error reports an override whose port range is
// inverted or whose custom function is present on an invalid range.
func New(overrides ...Override) (*Classifier, error) {
	for i, o := range overrides {
		if o.PortLo < 0 || o.PortHi < 0 || o.PortLo > 65535 || o.PortHi > 65535 {
			return nil, fmt.Errorf("classify: override %d: port bound outside [0,65535]", i)
		}
		if (o.PortLo != 0 || o.PortHi != 0) && o.PortLo > o.PortHi {
			return nil, fmt.Errorf("classify: override %d: inverted port range [%d,%d]", i, o.PortLo, o.PortHi)
		}
	}
	return &Classifier{overrides: append([]Override(nil), overrides...)}, nil
}

// Classify decides the class for one aggregate's features.
func (c *Classifier) Classify(f Features) Decision {
	// Tier 1: operator knowledge.
	for _, o := range c.overrides {
		if o.matches(f) {
			d := Decision{Class: o.Class, Confidence: 1, Source: SourceOverride}
			if o.Fn != nil {
				d.Fn = *o.Fn
			} else {
				d.Fn = utility.ForClass(o.Class)
			}
			return d
		}
	}
	// Tier 2: well-known ports.
	if cls, ok := wellKnownPorts[f.Port]; ok {
		return Decision{Class: cls, Fn: utility.ForClass(cls), Confidence: 0.9, Source: SourcePort}
	}
	// Tier 3: behaviour. Congestion makes rates lie (a truncated bulk
	// flow looks slow and steady), so confidence decays with it.
	conf := 0.7 * (1 - clamp01(f.CongestedFraction))
	if f.MeanRatePerFlow > 0 {
		switch {
		case f.MeanRatePerFlow >= largeFileMinRate:
			return Decision{Class: utility.ClassLargeFile, Fn: utility.ForClass(utility.ClassLargeFile), Confidence: conf, Source: SourceBehaviour}
		case f.MeanRatePerFlow <= realTimeMaxRate && f.RateCV >= 0 && f.RateCV <= realTimeMaxCV:
			return Decision{Class: utility.ClassRealTime, Fn: utility.ForClass(utility.ClassRealTime), Confidence: conf, Source: SourceBehaviour}
		}
	}
	// Default: bulk/web.
	return Decision{Class: utility.ClassBulk, Fn: utility.ForClass(utility.ClassBulk), Confidence: 0.5, Source: SourceDefault}
}

// FeaturesFromRates derives the behavioural features of one aggregate
// from a series of per-epoch rate observations (kbps aggregate rate per
// epoch), its flow count, and the fraction of congested epochs.
func FeaturesFromRates(rates []float64, flows int, congestedFraction float64) Features {
	f := Features{Flows: flows, RateCV: -1, CongestedFraction: congestedFraction}
	if len(rates) == 0 || flows <= 0 {
		return f
	}
	var sum float64
	for _, r := range rates {
		sum += r
	}
	mean := sum / float64(len(rates))
	f.MeanRatePerFlow = unit.Bandwidth(mean / float64(flows))
	if len(rates) >= 2 && mean > 0 {
		var ss float64
		for _, r := range rates {
			d := r - mean
			ss += d * d
		}
		f.RateCV = math.Sqrt(ss/float64(len(rates)-1)) / mean
	}
	return f
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
