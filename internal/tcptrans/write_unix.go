//go:build unix

package tcptrans

import "syscall"

// writeFD is one write(2) of p to a socket the runtime keeps in
// non-blocking mode: it returns how much the kernel took, never waiting for
// room.
func writeFD(fd uintptr, p []byte) int {
	n, _ := syscall.Write(int(fd), p)
	return n
}

// pollablePipe: os.Pipe's read end is registered with the network poller,
// so a burstQueue consumer can park on it (see parkInPoller).
const pollablePipe = true
