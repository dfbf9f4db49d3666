//! A small blocking client for the JSON-lines protocol.
//!
//! [`QaClient`] is what the REPL's `:serve` smoke check, the
//! `exp_service` load driver and the integration tests speak through.
//! It supports both call-and-wait ([`QaClient::request`]) and
//! pipelined use ([`QaClient::send`] / [`QaClient::recv`]), plus a
//! busy-honouring retry helper that sleeps the server's own
//! `retry_after_ms` hint.

use crate::protocol::{ProtocolError, Request, Response};
use dwqa_core::Error;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// A blocking connection to a [`crate::QaServer`].
pub struct QaClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    next_id: u64,
}

impl QaClient {
    /// Connects to a running server.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<QaClient> {
        let stream = TcpStream::connect(addr)?;
        let writer = stream.try_clone()?;
        Ok(QaClient {
            reader: BufReader::new(stream),
            writer,
            next_id: 1,
        })
    }

    /// The next correlation id (auto-incremented by the helpers).
    pub fn next_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Writes one request line without waiting for the response.
    pub fn send(&mut self, request: &Request) -> Result<(), Error> {
        let mut line = serde_json::to_string(request)
            .map_err(|e| ProtocolError::Malformed(e.to_string()))
            .map_err(Error::from)?;
        line.push('\n');
        self.writer.write_all(line.as_bytes())?;
        Ok(())
    }

    /// Reads one response line. `Err(Error::Io)` on a closed socket,
    /// `Err(Error::Protocol)` on an unparseable line.
    pub fn recv(&mut self) -> Result<Response, Error> {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line)?;
        if n == 0 {
            return Err(Error::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            )));
        }
        let response = serde_json::from_str(line.trim_end())
            .map_err(|e| ProtocolError::Malformed(e.to_string()))?;
        Ok(response)
    }

    /// Sends a request and waits for its response.
    pub fn request(&mut self, request: &Request) -> Result<Response, Error> {
        self.send(request)?;
        self.recv()
    }

    /// Asks one question.
    pub fn ask(&mut self, question: &str) -> Result<Response, Error> {
        let id = self.next_id();
        self.request(&Request::ask(id, question))
    }

    /// Asks one question with a per-question deadline.
    pub fn ask_with_deadline(
        &mut self,
        question: &str,
        deadline_ms: u64,
    ) -> Result<Response, Error> {
        let id = self.next_id();
        self.request(&Request::ask(id, question).with_deadline_ms(deadline_ms))
    }

    /// Asks one question, honouring `busy` backpressure: sleeps the
    /// server's retry-after hint and retries, up to `max_retries`
    /// times. The last response is returned even if still busy.
    pub fn ask_with_retry(
        &mut self,
        question: &str,
        max_retries: usize,
    ) -> Result<Response, Error> {
        let mut response = self.ask(question)?;
        for _ in 0..max_retries {
            if !response.is_busy() {
                break;
            }
            let wait = response.retry_after_ms.unwrap_or(10);
            std::thread::sleep(Duration::from_millis(wait.min(250)));
            response = self.ask(question)?;
        }
        Ok(response)
    }

    /// Answers a batch of questions.
    pub fn batch(&mut self, questions: &[String]) -> Result<Response, Error> {
        let id = self.next_id();
        self.request(&Request::batch(id, questions))
    }

    /// Answers the questions and feeds the results into the warehouse.
    pub fn feedback(&mut self, questions: &[String]) -> Result<Response, Error> {
        let id = self.next_id();
        self.request(&Request::feedback(id, questions))
    }

    /// Answers the questions and feeds them, honouring `busy`
    /// backpressure (shed, rate-limit, or replication lag): sleeps the
    /// server's retry-after hint and retries, up to `max_retries`
    /// times. Feed deduplication makes retries of an already-committed
    /// transaction no-ops, so this is the safe way to drive a
    /// replicating primary to an acknowledged commit.
    pub fn feedback_with_retry(
        &mut self,
        questions: &[String],
        max_retries: usize,
    ) -> Result<Response, Error> {
        let mut response = self.feedback(questions)?;
        for _ in 0..max_retries {
            if !response.is_busy() {
                break;
            }
            let wait = response.retry_after_ms.unwrap_or(10);
            std::thread::sleep(Duration::from_millis(wait.min(250)));
            response = self.feedback(questions)?;
        }
        Ok(response)
    }

    /// Fetches the server's metrics registry snapshot.
    pub fn stats(&mut self) -> Result<Response, Error> {
        let id = self.next_id();
        self.request(&Request::stats(id))
    }

    /// Fetches the replication role, position, and peer status.
    pub fn replicas(&mut self) -> Result<Response, Error> {
        let id = self.next_id();
        self.request(&Request::replicas(id))
    }

    /// Asks a standby to promote itself to primary.
    pub fn promote(&mut self) -> Result<Response, Error> {
        let id = self.next_id();
        self.request(&Request::promote(id))
    }

    /// Asks the server to drain gracefully.
    pub fn drain(&mut self) -> Result<Response, Error> {
        let id = self.next_id();
        self.request(&Request::drain(id))
    }
}
