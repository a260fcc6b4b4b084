package guestos

import (
	"encoding/binary"
	"fmt"

	"dqemu/internal/abi"
)

// Host is what the syscall engine needs from the cluster core. Guest memory
// access is continuation-style because the master may first have to pull
// pages home through the coherence protocol (§4.3: pointer arguments migrate
// their pages to the master; modified pages are invalidated on the slaves).
type Host interface {
	// ReadGuest delivers n bytes at addr from the authoritative copy.
	ReadGuest(addr uint64, n int, cb func([]byte, error))
	// WriteGuest stores data at addr in the authoritative copy and
	// invalidates remote copies of the touched pages.
	WriteGuest(addr uint64, data []byte, cb func(error))
	// StartThread creates and places a new guest thread (§4.1). hint is
	// the creator's locality group for hint-based placement (§5.3).
	StartThread(tid int64, fn, arg, stackTop uint64, hint int64)
	// Shutdown terminates the whole guest program (exit_group).
	Shutdown(code int64)
	// ConsoleWrite emits bytes written to the standard streams.
	ConsoleWrite(fd int64, data []byte)
	// NowNs is the virtual clock.
	NowNs() int64
}

// Stats counts syscall activity on the master.
type Stats struct {
	Global     uint64
	ByNum      map[int64]uint64
	Unknown    uint64
	ConsoleOut uint64
}

// OS is the master-side guest operating system state: the system resources
// whose "global state ... are maintained centrally by the master node" (§4).
type OS struct {
	host  Host
	vfs   *VFS
	fds   *FDTable
	futex *FutexTable

	alive   map[int64]bool
	joiners map[int64][]func(uint64)
	nextTID int64

	brkStart, brkCur uint64
	mmapCur, mmapEnd uint64

	Stats Stats
}

// MainTID is the thread id of the initial thread.
const MainTID = 1

// New builds the OS. brkStart is the initial program break (end of the
// loaded image); the mmap region hands out thread stacks and large
// allocations.
func New(host Host, vfs *VFS, brkStart, mmapBase, mmapEnd uint64) *OS {
	return &OS{
		host:     host,
		vfs:      vfs,
		fds:      NewFDTable(),
		futex:    NewFutexTable(),
		alive:    map[int64]bool{MainTID: true},
		joiners:  map[int64][]func(uint64){},
		nextTID:  MainTID + 1,
		brkStart: brkStart,
		brkCur:   brkStart,
		mmapCur:  mmapBase,
		mmapEnd:  mmapEnd,
		Stats:    Stats{ByNum: map[int64]uint64{}},
	}
}

// VFS returns the filesystem (for pre-populating inputs and reading output).
func (o *OS) VFS() *VFS { return o.vfs }

// Futex exposes the futex table (for statistics).
func (o *OS) Futex() *FutexTable { return o.futex }

// AliveThreads returns the number of live guest threads.
func (o *OS) AliveThreads() int { return len(o.alive) }

// IsGlobal classifies a syscall: global syscalls are delegated to the
// master (§4.3); the rest execute on the trapping node.
func IsGlobal(num int64) bool {
	switch num {
	case abi.SysGetTID, abi.SysNodeID, abi.SysNumNodes, abi.SysClockGettime,
		abi.SysNanosleep, abi.SysSchedYield, abi.SysHint, abi.SysTimeNs:
		return false
	}
	return true
}

func errno(e int64) uint64 { return uint64(-e) }

// Global executes a delegated syscall for thread tid. reply is invoked with
// the A0 result — possibly much later (futex waits park the reply in the
// futex table; exit and exit_group never reply).
func (o *OS) Global(tid int64, num int64, args [6]uint64, reply func(uint64)) {
	o.Stats.Global++
	o.Stats.ByNum[num]++
	switch num {
	case abi.SysExit:
		o.threadExited(tid, int64(args[0]))
	case abi.SysExitGroup:
		o.host.Shutdown(int64(args[0]))
	case abi.SysWrite:
		o.sysWrite(int64(args[0]), args[1], int64(args[2]), reply)
	case abi.SysRead:
		o.sysRead(int64(args[0]), args[1], int64(args[2]), reply)
	case abi.SysOpenAt:
		o.sysOpenAt(args[1], int64(args[2]), reply)
	case abi.SysClose:
		if o.fds.Close(int64(args[0])) {
			reply(0)
		} else {
			reply(errno(abi.EBADF))
		}
	case abi.SysLSeek:
		if pos, ok := o.fds.LSeek(int64(args[0]), int64(args[1]), int64(args[2])); ok {
			reply(uint64(pos))
		} else {
			reply(errno(abi.EBADF))
		}
	case abi.SysFstat:
		o.sysFstat(int64(args[0]), args[1], reply)
	case abi.SysBrk:
		reply(o.sysBrk(args[0]))
	case abi.SysMmap:
		reply(o.sysMmap(args[1]))
	case abi.SysMunmap:
		reply(0)
	case abi.SysFutex:
		o.sysFutex(tid, args, reply)
	case abi.SysThreadCreate:
		o.sysThreadCreate(args[0], args[1], args[2], int64(args[3]), reply)
	case abi.SysThreadJoin:
		o.sysJoin(int64(args[0]), reply)
	case abi.SysGetPID:
		reply(1)
	case abi.SysUname:
		o.sysUname(args[0], reply)
	case abi.SysGetcwd:
		o.sysGetcwd(args[0], args[1], reply)
	case abi.SysClone:
		// Raw clone is not supported; the runtime uses SysThreadCreate, the
		// instrumented-creation path of §4.1.
		reply(errno(abi.ENOSYS))
	default:
		o.Stats.Unknown++
		reply(errno(abi.ENOSYS))
	}
}

func (o *OS) sysWrite(fd int64, addr uint64, count int64, reply func(uint64)) {
	if count < 0 {
		reply(errno(abi.EINVAL))
		return
	}
	if count == 0 {
		reply(0)
		return
	}
	o.host.ReadGuest(addr, int(count), func(data []byte, err error) {
		if err != nil {
			reply(errno(abi.EFAULT))
			return
		}
		if fd == 1 || fd == 2 {
			o.Stats.ConsoleOut += uint64(len(data))
			o.host.ConsoleWrite(fd, data)
			reply(uint64(count))
			return
		}
		if n, ok := o.fds.Write(fd, data); ok {
			reply(uint64(n))
		} else {
			reply(errno(abi.EBADF))
		}
	})
}

func (o *OS) sysRead(fd int64, addr uint64, count int64, reply func(uint64)) {
	if count < 0 {
		reply(errno(abi.EINVAL))
		return
	}
	if fd == 0 {
		reply(0) // EOF on stdin
		return
	}
	buf := make([]byte, count)
	n, ok := o.fds.Read(fd, buf)
	if !ok {
		reply(errno(abi.EBADF))
		return
	}
	if n == 0 {
		reply(0)
		return
	}
	o.host.WriteGuest(addr, buf[:n], func(err error) {
		if err != nil {
			reply(errno(abi.EFAULT))
			return
		}
		reply(uint64(n))
	})
}

func (o *OS) sysOpenAt(pathAddr uint64, flags int64, reply func(uint64)) {
	o.readCString(pathAddr, 4096, func(path string, err error) {
		if err != nil {
			reply(errno(abi.EFAULT))
			return
		}
		fd, oerr := o.fds.Open(o.vfs, path, flags)
		if oerr != nil {
			reply(errno(abi.ENOENT))
			return
		}
		reply(uint64(fd))
	})
}

func (o *OS) sysFstat(fd int64, statAddr uint64, reply func(uint64)) {
	size, ok := o.fds.Size(fd)
	if !ok && fd > 2 {
		reply(errno(abi.EBADF))
		return
	}
	// Minimal struct stat: st_mode (u32 at 16), st_size (i64 at 48).
	buf := make([]byte, 128)
	binary.LittleEndian.PutUint32(buf[16:], 0x81ed) // regular file, 0755
	binary.LittleEndian.PutUint64(buf[48:], uint64(size))
	o.host.WriteGuest(statAddr, buf, func(err error) {
		if err != nil {
			reply(errno(abi.EFAULT))
			return
		}
		reply(0)
	})
}

func (o *OS) sysBrk(addr uint64) uint64 {
	if addr == 0 {
		return o.brkCur
	}
	if addr < o.brkStart {
		return o.brkCur
	}
	o.brkCur = addr
	return o.brkCur
}

func (o *OS) sysMmap(length uint64) uint64 {
	length = (length + 4095) &^ 4095
	if length == 0 || o.mmapCur+length > o.mmapEnd {
		return errno(abi.ENOMEM)
	}
	addr := o.mmapCur
	o.mmapCur += length
	return addr
}

func (o *OS) sysFutex(tid int64, args [6]uint64, reply func(uint64)) {
	addr := args[0]
	op := int64(args[1])
	val := args[2]
	switch op {
	case abi.FutexWait:
		// Check *addr == val against the authoritative copy; park if equal.
		o.host.ReadGuest(addr, 8, func(data []byte, err error) {
			if err != nil {
				reply(errno(abi.EFAULT))
				return
			}
			cur := binary.LittleEndian.Uint64(data)
			if cur != val {
				reply(errno(abi.EAGAIN))
				return
			}
			o.futex.Wait(addr, tid, func() { reply(0) })
		})
	case abi.FutexWake:
		o.futex.NoteRelease(addr, tid)
		reply(uint64(o.futex.Wake(addr, int64(val))))
	default:
		reply(errno(abi.EINVAL))
	}
}

func (o *OS) sysThreadCreate(fn, arg, stackTop uint64, hint int64, reply func(uint64)) {
	tid := o.nextTID
	o.nextTID++
	o.alive[tid] = true
	o.host.StartThread(tid, fn, arg, stackTop, hint)
	reply(uint64(tid))
}

func (o *OS) sysJoin(tid int64, reply func(uint64)) {
	if !o.alive[tid] {
		reply(0)
		return
	}
	o.joiners[tid] = append(o.joiners[tid], reply)
}

// threadExited handles SysExit: the thread is reaped and joiners wake.
func (o *OS) threadExited(tid int64, code int64) {
	delete(o.alive, tid)
	for _, j := range o.joiners[tid] {
		j(0)
	}
	delete(o.joiners, tid)
}

func (o *OS) sysUname(addr uint64, reply func(uint64)) {
	buf := make([]byte, 6*65)
	for i, s := range []string{"Linux", "dqemu", "4.15.0-dqemu", "#1 SMP", "ga64", ""} {
		copy(buf[i*65:], s)
	}
	o.host.WriteGuest(addr, buf, func(err error) {
		if err != nil {
			reply(errno(abi.EFAULT))
			return
		}
		reply(0)
	})
}

func (o *OS) sysGetcwd(addr, size uint64, reply func(uint64)) {
	cwd := []byte("/\x00")
	if size < uint64(len(cwd)) {
		reply(errno(abi.EINVAL))
		return
	}
	o.host.WriteGuest(addr, cwd, func(err error) {
		if err != nil {
			reply(errno(abi.EFAULT))
			return
		}
		reply(uint64(len(cwd)))
	})
}

// readCString pulls a NUL-terminated string through ReadGuest in chunks.
func (o *OS) readCString(addr uint64, max int, cb func(string, error)) {
	const chunk = 256
	var acc []byte
	var step func(uint64)
	step = func(cur uint64) {
		n := chunk
		if len(acc)+n > max {
			n = max - len(acc)
		}
		if n <= 0 {
			cb("", fmt.Errorf("guestos: unterminated string at %#x", addr))
			return
		}
		o.host.ReadGuest(cur, n, func(data []byte, err error) {
			if err != nil {
				cb("", err)
				return
			}
			for i, b := range data {
				if b == 0 {
					cb(string(append(acc, data[:i]...)), nil)
					return
				}
			}
			acc = append(acc, data...)
			step(cur + uint64(len(data)))
		})
	}
	step(addr)
}
