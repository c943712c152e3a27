//go:build unix

package net

import "syscall"

// tryWrite makes one write(2) on the connection's non-blocking socket
// and reports how much of b the kernel took; a full send buffer is
// n < len(b) with a nil error.
func tryWrite(rc syscall.RawConn, b []byte) (n int, err error) {
	cerr := rc.Write(func(fd uintptr) bool {
		n, err = syscall.Write(int(fd), b)
		return true // done either way: never park waiting for writability
	})
	if n < 0 {
		n = 0
	}
	if cerr != nil {
		return n, cerr
	}
	if err == syscall.EAGAIN || err == syscall.EINTR {
		err = nil
	}
	return n, err
}
