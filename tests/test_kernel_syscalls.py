"""Syscall-level behaviour, driven by purpose-built user programs."""

from tests.helpers import USER_PRELUDE, run_user_program


def run_prog(kernel, binaries, body, **kw):
    source = USER_PRELUDE + body
    result = run_user_program(kernel, binaries, source, **kw)
    assert result.status == "shutdown", result.console
    return result


class TestFileSyscalls:
    def test_creat_write_read_roundtrip(self, kernel, binaries):
        result = run_prog(kernel, binaries, r"""
        int main() {
            int buf[4];
            int fd;
            begin();
            fd = creat("/var/t.dat");
            write(fd, "hello", 5);
            close(fd);
            fd = open("/var/t.dat");
            read(fd, buf, 5);
            stb(buf + 5, 0);
            if (strcmp(buf, "hello") == 0)
                print("ROUNDTRIP OK\n");
            close(fd);
            reboot(0);
        }
        """)
        assert "ROUNDTRIP OK" in result.console

    def test_lseek_and_partial_reads(self, kernel, binaries):
        result = run_prog(kernel, binaries, r"""
        int main() {
            int buf[4];
            int fd;
            begin();
            fd = creat("/var/t.dat");
            write(fd, "0123456789", 10);
            lseek(fd, 4, 0);
            read(fd, buf, 3);
            stb(buf + 3, 0);
            print(buf);             /* 456 */
            lseek(fd, -2, 2);
            read(fd, buf, 2);
            stb(buf + 2, 0);
            print(buf);             /* 89 */
            print("\n");
            reboot(0);
        }
        """)
        assert "45689" in result.console

    def test_unlink_removes_file(self, kernel, binaries):
        result = run_prog(kernel, binaries, r"""
        int main() {
            int fd;
            begin();
            fd = creat("/var/gone.txt");
            write(fd, "x", 1);
            close(fd);
            unlink("/var/gone.txt");
            fd = open("/var/gone.txt");
            printn(fd);
            print("\n");
            reboot(0);
        }
        """)
        assert "-2" in result.console  # -ENOENT

    def test_open_missing_is_enoent(self, kernel, binaries):
        result = run_prog(kernel, binaries, r"""
        int main() {
            begin();
            printn(open("/does/not/exist"));
            reboot(0);
        }
        """)
        assert "-2" in result.console

    def test_bad_fd_is_ebadf(self, kernel, binaries):
        result = run_prog(kernel, binaries, r"""
        int main() {
            int buf[2];
            begin();
            printn(read(7, buf, 4));
            print(" ");
            printn(write(200, buf, 4));
            reboot(0);
        }
        """)
        assert "-9 -9" in result.console

    def test_efault_on_kernel_pointer(self, kernel, binaries):
        result = run_prog(kernel, binaries, r"""
        int main() {
            int fd;
            begin();
            fd = open("/etc/motd");
            printn(read(fd, 0xC0100000, 4));
            print(" ");
            printn(write(1, 0xC0100000, 4));
            reboot(0);
        }
        """)
        assert "-14 -14" in result.console  # -EFAULT twice

    def test_file_persists_on_disk_image(self, kernel, binaries):
        from repro.machine.disk import read_file
        result = run_prog(kernel, binaries, r"""
        int main() {
            int fd;
            begin();
            fd = creat("/var/persist.txt");
            write(fd, "DATA", 4);
            close(fd);
            sync();
            reboot(0);
        }
        """)
        assert read_file(result.disk_image, "/var/persist.txt") == b"DATA"


class TestProcessSyscalls:
    def test_fork_returns_zero_in_child(self, kernel, binaries):
        result = run_prog(kernel, binaries, r"""
        int main() {
            int pid;
            int status;
            begin();
            pid = fork();
            if (pid == 0) {
                print("child\n");
                exit(7);
            }
            wait(&status);
            print("parent saw ");
            printn(status);
            print("\n");
            reboot(0);
        }
        """)
        assert "child" in result.console
        assert "parent saw 7" in result.console

    def test_cow_isolates_parent_and_child(self, kernel, binaries):
        result = run_prog(kernel, binaries, r"""
        int shared = 100;
        int main() {
            int pid;
            int status;
            begin();
            pid = fork();
            if (pid == 0) {
                shared = 999;       /* must not affect the parent */
                exit(0);
            }
            wait(&status);
            printn(shared);
            print("\n");
            reboot(0);
        }
        """)
        assert "100" in result.console
        assert "999" not in result.console

    def test_wait_without_children(self, kernel, binaries):
        result = run_prog(kernel, binaries, r"""
        int main() {
            int status;
            begin();
            printn(wait(&status));
            reboot(0);
        }
        """)
        assert "-10" in result.console  # -ECHILD

    def test_getpid_stable(self, kernel, binaries):
        result = run_prog(kernel, binaries, r"""
        int main() {
            begin();
            printn(getpid() == getpid());
            reboot(0);
        }
        """)
        assert "1" in result.console

    def test_brk_grows_heap(self, kernel, binaries):
        result = run_prog(kernel, binaries, r"""
        int main() {
            int base;
            int p;
            begin();
            base = brk(0);
            brk(base + 8192);
            p = base + 5000;
            st(p, 1234);            /* demand-paged heap */
            printn(ld(p));
            print("\n");
            reboot(0);
        }
        """)
        assert "1234" in result.console

    def test_user_segfault_kills_process(self, kernel, binaries):
        result = run_prog(kernel, binaries, r"""
        int main() {
            int pid;
            int status;
            begin();
            pid = fork();
            if (pid == 0) {
                st(4, 1);           /* near-NULL write */
                exit(0);
            }
            status = -1;
            wait(&status);
            printn(status);
            print("\n");
            reboot(0);
        }
        """)
        assert "139" in result.console
        assert "segfault at 00000004" in result.console

    def test_divide_error_kills_process(self, kernel, binaries):
        result = run_prog(kernel, binaries, r"""
        int zero = 0;
        int main() {
            int pid;
            int status;
            begin();
            pid = fork();
            if (pid == 0) {
                printn(7 / zero);
                exit(0);
            }
            status = -1;
            wait(&status);
            printn(status);
            reboot(0);
        }
        """)
        assert str(128 + 8) in result.console  # SIGFPE

    def test_deep_user_recursion_grows_stack(self, kernel, binaries):
        result = run_prog(kernel, binaries, r"""
        int depth(n) {
            int pad[16];
            pad[15] = n;
            if (n == 0)
                return 0;
            return depth(n - 1) + pad[15];
        }
        int main() {
            begin();
            printn(depth(200));     /* ~64 KB of frames, demand-paged */
            print("\n");
            reboot(0);
        }
        """)
        assert str(sum(range(201))) in result.console


class TestPipesAndIpc:
    def test_pipe_blocking_handoff(self, kernel, binaries):
        result = run_prog(kernel, binaries, r"""
        int fds[2];
        int main() {
            int pid;
            int status;
            int word[1];
            begin();
            pipe(fds);
            pid = fork();
            if (pid == 0) {
                word[0] = 4242;
                write(fds[1], word, 4);
                exit(0);
            }
            word[0] = 0;
            read(fds[0], word, 4);
            wait(&status);
            printn(word[0]);
            reboot(0);
        }
        """)
        assert "4242" in result.console

    def test_read_from_closed_pipe_eof(self, kernel, binaries):
        result = run_prog(kernel, binaries, r"""
        int fds[2];
        int main() {
            int word[1];
            begin();
            pipe(fds);
            close(fds[1]);
            printn(read(fds[0], word, 4));  /* EOF -> 0 */
            reboot(0);
        }
        """)
        assert "0" in result.console

    def test_sem_ping(self, kernel, binaries):
        result = run_prog(kernel, binaries, r"""
        int main() {
            begin();
            printn(sem_op(0));
            printn(sem_op(1));
            printn(net_ping(77) >= 0);
            reboot(0);
        }
        """)
        assert "001" in result.console

    def test_exec_replaces_image(self, kernel, binaries):
        result = run_prog(kernel, binaries, r"""
        int main() {
            int pid;
            int status;
            begin();
            pid = fork();
            if (pid == 0) {
                exec("/bin/nulltask");
                exit(99);           /* only on exec failure */
            }
            status = -1;
            wait(&status);
            printn(status);
            reboot(0);
        }
        """)
        assert "0" in result.console
        assert "99" not in result.console

    def test_exec_missing_binary_fails(self, kernel, binaries):
        result = run_prog(kernel, binaries, r"""
        int main() {
            begin();
            printn(exec("/bin/nothere"));
            reboot(0);
        }
        """)
        assert "-2" in result.console
