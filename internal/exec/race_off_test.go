//go:build !race

package exec

const raceBuild = false
