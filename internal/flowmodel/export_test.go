package flowmodel

import "testing"

// The instance builders the external certificate tests draw from.
var (
	RandomInstance = randomInstance
	Perturb        = perturb
	ScalePresets   = scalePresets
)

func (p scalePreset) Name() string { return p.name }

func (p scalePreset) Instance(tb testing.TB, paths int) (*Model, []Bundle) {
	return p.instance(tb, paths)
}
