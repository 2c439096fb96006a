//go:build !race

package ordertest

const RaceScale = 1
