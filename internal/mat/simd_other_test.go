//go:build !amd64

package mat

// eachSIMDMode runs f once: off amd64 there is only the scalar path.
func eachSIMDMode(f func(mode string)) { f("scalar") }
