//! Checked multi-producer single-consumer channel mirroring the
//! `std::sync::mpsc` API surface used by the wakeup channels of `ross`'s
//! asynchronous scheduler. Each message carries the sender's vector
//! clock; a receive joins it, establishing the send→recv happens-before
//! edge. A blocking `recv` on an empty channel parks the controlled
//! thread (it is simply not *enabled* until a send lands or all senders
//! disconnect).

use crate::rt::with_rt;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex as StdMutex};

#[derive(Debug, PartialEq, Eq)]
pub struct SendError<T>(pub T);

#[derive(Debug, PartialEq, Eq)]
pub struct RecvError;

#[derive(Debug, PartialEq, Eq)]
pub enum TryRecvError {
    Empty,
    Disconnected,
}

struct Shared<T> {
    obj: usize,
    // The value queue mirrors the runtime's clock queue index-for-index;
    // the baton scheduler serializes all pushes/pops, the std mutex only
    // provides `Sync`.
    queue: StdMutex<VecDeque<T>>,
}

pub fn channel<T>() -> (Sender<T>, Receiver<T>) {
    let obj = with_rt(|rt, _| rt.chan_new());
    let shared = Arc::new(Shared { obj, queue: StdMutex::new(VecDeque::new()) });
    (Sender { shared: shared.clone() }, Receiver { shared })
}

pub struct Sender<T> {
    shared: Arc<Shared<T>>,
}

impl<T> Sender<T> {
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        with_rt(|rt, tid| rt.chan_send(tid, self.shared.obj));
        self.shared.queue.lock().unwrap().push_back(value);
        Ok(())
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        with_rt(|rt, _| rt.chan_sender_cloned(self.shared.obj));
        Sender { shared: self.shared.clone() }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        with_rt(|rt, _| rt.chan_sender_dropped(self.shared.obj));
    }
}

pub struct Receiver<T> {
    shared: Arc<Shared<T>>,
}

impl<T> Receiver<T> {
    /// Blocking receive; errors once the channel is empty and every sender
    /// has been dropped.
    pub fn recv(&self) -> Result<T, RecvError> {
        let got = with_rt(|rt, tid| rt.chan_recv(tid, self.shared.obj));
        match got {
            Ok(()) => Ok(self
                .shared
                .queue
                .lock()
                .unwrap()
                .pop_front()
                .expect("clock/value queues out of sync")),
            Err(()) => Err(RecvError),
        }
    }

    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        let got = with_rt(|rt, tid| rt.chan_try_recv(tid, self.shared.obj));
        match got {
            Ok(true) => Ok(self
                .shared
                .queue
                .lock()
                .unwrap()
                .pop_front()
                .expect("clock/value queues out of sync")),
            Ok(false) => Err(TryRecvError::Empty),
            Err(()) => Err(TryRecvError::Disconnected),
        }
    }
}
