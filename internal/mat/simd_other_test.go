//go:build !amd64 || purego

package mat

// eachSIMDMode runs f once: off amd64, or under purego, there is only the
// scalar path.
func eachSIMDMode(f func(mode string)) { f("scalar") }
