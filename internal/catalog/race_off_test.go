//go:build !race

package catalog_test

const raceBuild = false
