//go:build race

package async

func init() { raceEnabled = true }
