//go:build !unix

package tcptrans

// writeFD takes nothing where sockets have no plain write(2): every inline
// write leaves its bytes to the connection's writer goroutine.
func writeFD(fd uintptr, p []byte) int { return 0 }

// pollablePipe: a pipe is not pollable here, so every burstQueue consumer
// parks on its wake channel.
const pollablePipe = false
