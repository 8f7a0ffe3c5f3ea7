//go:build race

package fubar

// raceBuild reports a race-detector build, whose allocation counts are not
// a normal build's.
const raceBuild = true
