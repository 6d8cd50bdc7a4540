package main

import "syscall"

// fsType names the file system holding dir, so the output says whether
// snapshot persistence hit memory or a disk.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown file system"
	}
	if st.Type == 0x01021994 { // TMPFS_MAGIC
		return "tmpfs"
	}
	return "not tmpfs"
}
