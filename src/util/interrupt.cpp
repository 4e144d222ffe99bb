/**
 * @file
 * Implementation of cooperative interrupt handling.
 */

#include "util/interrupt.hpp"

#include <atomic>
#include <csignal>

namespace leakbound::util {

namespace {

std::atomic<int> g_pending_signal{0};
std::atomic<bool> g_installed{false};

extern "C" void
on_signal(int signal)
{
    // Only async-signal-safe work here: set the flag and return.  The
    // suite runner polls interrupt_requested() at job boundaries.
    g_pending_signal.store(signal, std::memory_order_relaxed);
}

} // namespace

void
install_signal_handlers()
{
    bool expected = false;
    if (!g_installed.compare_exchange_strong(expected, true))
        return;
    struct sigaction action = {};
    action.sa_handler = on_signal;
    sigemptyset(&action.sa_mask);
    // One-shot: a second SIGINT/SIGTERM takes the default action and
    // kills the process, so shutdown can never wedge unrecoverably.
    action.sa_flags = SA_RESETHAND;
    ::sigaction(SIGINT, &action, nullptr);
    ::sigaction(SIGTERM, &action, nullptr);
    // A peer closing mid-write must surface as EPIPE from the write,
    // never as a process-killing SIGPIPE.  Sends through util::net use
    // MSG_NOSIGNAL already; this covers every other descriptor
    // (stdio redirected to a dead pager, ...).
    ::signal(SIGPIPE, SIG_IGN);
}

bool
interrupt_requested()
{
    return g_pending_signal.load(std::memory_order_relaxed) != 0;
}

int
pending_signal()
{
    return g_pending_signal.load(std::memory_order_relaxed);
}

int
interrupt_exit_code()
{
    const int signal = pending_signal();
    return signal == 0 ? 0 : 128 + signal;
}

void
simulate_interrupt(int signal)
{
    g_pending_signal.store(signal, std::memory_order_relaxed);
}

void
clear_interrupt()
{
    g_pending_signal.store(0, std::memory_order_relaxed);
}

} // namespace leakbound::util
