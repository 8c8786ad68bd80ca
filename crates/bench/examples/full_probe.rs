//! Full-scale probe: headline numbers plus the duration-heuristic
//! scores.

use moas_core::causes::score_duration_heuristic;
use moas_lab::study::{Study, StudyConfig};

fn main() {
    let t = std::time::Instant::now();
    let study = Study::build(StudyConfig::paper());
    let tl = study.analyze(
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(2),
    );
    eprintln!("analyzed in {:?}", t.elapsed());
    println!("duration-heuristic scores (valid if duration > threshold):");
    for threshold in [1u32, 9, 29, 89] {
        let s = score_duration_heuristic(&tl, threshold, |p| study.ground_truth_valid(p));
        println!(
            "  >{threshold:>2} days: accuracy {:.1}%  invalid-precision {:.1}%  (TV {} TI {} FV {} FI {})",
            s.accuracy() * 100.0,
            s.invalid_precision() * 100.0,
            s.true_valid, s.true_invalid, s.false_valid, s.false_invalid
        );
    }
}
