//go:build !unix

package net

import "syscall"

// tryWrite without a portable non-blocking write(2): the kernel "takes
// nothing", so every frame goes out through the peer's loop.
func tryWrite(syscall.RawConn, []byte) (int, error) { return 0, nil }
