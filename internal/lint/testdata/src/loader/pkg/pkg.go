// Package pkg is the loader fixture: an in-package test file exposes an
// unexported helper that the external test package calls, the way
// export_test.go files do.
package pkg

func double(n int) int { return 2 * n }
