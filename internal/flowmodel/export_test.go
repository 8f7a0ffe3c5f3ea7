package flowmodel

// The instance builders the external certificate tests draw from.
var (
	RandomInstance = randomInstance
	Perturb        = perturb
	PresetInstance = presetInstance
	ScalePresets   = scalePresets
)
