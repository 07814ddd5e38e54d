//! The output check: every response against the in-process oracle.

use std::path::PathBuf;

/// What the oracle — `obx_core::service::run_explain` on a freshly loaded
/// copy of the same scenario — printed for a request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Expected {
    pub stdout: String,
    pub exit_code: i32,
}

/// Oracle answers memoized by request digest, on disk under the
/// workload's data directory, which sits under the digest of the sources
/// under test. Data and program are fixed for that digest, so an answer
/// computed once — by `run_explain` on a fresh load, outside any timed
/// window — holds for every later run of the same sources that sends the
/// same request, and later runs skip recomputing it. Other sources never
/// see it.
pub struct Memo {
    dir: PathBuf,
}

impl Memo {
    pub fn new(dir: PathBuf) -> Result<Self, String> {
        std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
        Ok(Self { dir })
    }

    fn path(&self, key: &str) -> PathBuf {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in key.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        self.dir.join(format!("{h:016x}"))
    }

    /// The memoized answer for `key`. The file repeats the key, so a
    /// digest collision reads as a miss.
    pub fn get(&self, key: &str) -> Option<Expected> {
        let text = std::fs::read_to_string(self.path(key)).ok()?;
        let (head, stdout) = text.split_once('\n')?;
        let (exit, stored_key) = head.split_once('\t')?;
        (stored_key == key).then(|| Expected {
            stdout: stdout.to_owned(),
            exit_code: exit.parse().unwrap_or(-1),
        })
    }

    pub fn put(&self, key: &str, e: &Expected) -> Result<(), String> {
        let path = self.path(key);
        let tmp = path.with_extension(format!("tmp{}", std::process::id()));
        std::fs::write(&tmp, format!("{}\t{key}\n{}", e.exit_code, e.stdout))
            .map_err(|e| e.to_string())?;
        std::fs::rename(&tmp, &path).map_err(|e| e.to_string())
    }
}

/// Checks one response. `status` and `exit_header` are the HTTP status
/// and `x-obx-exit` header for served requests (`200` and the outcome's
/// exit code in-process). A degraded answer (exit 2) is a correct answer
/// when its bytes match; anything else that differs is a failure:
/// non-200 status, an `OBX` error or shed body, a differing exit code, or
/// differing bytes.
pub fn check(
    status: u16,
    exit_header: Option<&str>,
    body: &[u8],
    expected: &Expected,
) -> Result<(), String> {
    if status != 200 {
        return Err(format!(
            "status {status}: {}",
            String::from_utf8_lossy(&body[..body.len().min(200)])
        ));
    }
    if body.starts_with(b"{\"code\":\"OBX") {
        return Err(format!("OBX error body: {}", String::from_utf8_lossy(body)));
    }
    if exit_header != Some(expected.exit_code.to_string().as_str()) {
        return Err(format!(
            "exit {exit_header:?}, oracle exit {}",
            expected.exit_code
        ));
    }
    if body != expected.stdout.as_bytes() {
        return Err(format!(
            "bytes differ from the oracle:\n-- got --\n{}\n-- oracle --\n{}",
            String::from_utf8_lossy(body),
            expected.stdout
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn expected() -> Expected {
        Expected {
            stdout: "Z = 0.8333  [2/4+  0-]  q(x0) :- studies(x0, \"Science\")\n".to_owned(),
            exit_code: 0,
        }
    }

    #[test]
    fn identical_bytes_pass_and_degraded_answers_count_as_correct() {
        let e = expected();
        assert_eq!(check(200, Some("0"), e.stdout.as_bytes(), &e), Ok(()));
        let degraded = Expected {
            stdout: format!(
                "{}-- search stopped early: eval budget exhausted\n",
                e.stdout
            ),
            exit_code: 2,
        };
        assert_eq!(
            check(200, Some("2"), degraded.stdout.as_bytes(), &degraded),
            Ok(())
        );
    }

    #[test]
    fn a_corrupted_response_is_a_failure() {
        let e = expected();
        let mut corrupt = e.stdout.clone().into_bytes();
        corrupt[4] = b'9';
        assert!(check(200, Some("0"), &corrupt, &e).is_err());
        let truncated = &e.stdout.as_bytes()[..10];
        assert!(check(200, Some("0"), truncated, &e).is_err());
        assert!(
            check(200, Some("2"), e.stdout.as_bytes(), &e).is_err(),
            "exit code differs"
        );
        assert!(
            check(200, None, e.stdout.as_bytes(), &e).is_err(),
            "exit header missing"
        );
    }

    #[test]
    fn memo_returns_what_was_put_under_the_same_key_only() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../.bench_work")
            .join(format!("memo-test-{}", std::process::id()));
        let memo = Memo::new(dir.clone()).unwrap();
        let e = expected();
        assert_eq!(memo.get("a"), None);
        memo.put("a", &e).unwrap();
        assert_eq!(memo.get("a"), Some(e.clone()));
        assert_eq!(memo.get("b"), None);
        // A file under the digest of another key reads as a miss.
        std::fs::copy(memo.path("a"), memo.path("b")).unwrap();
        assert_eq!(memo.get("b"), None);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn errors_and_sheds_are_failures() {
        let e = expected();
        let shed = br#"{"code":"OBX320","error":"server busy"}"#;
        assert!(check(429, None, shed, &e).is_err());
        assert!(check(200, Some("0"), shed, &e).is_err());
        assert!(check(500, Some("0"), e.stdout.as_bytes(), &e).is_err());
    }
}
