//! Train and evaluate the multinomial Bayes token classifier (the paper's
//! alternative to synonym matching in the concept instance rule), then
//! compare the two identification modes on held-out documents.
//!
//! Run with: `cargo run --example classifier_training`

use webre_substrate::rand::rngs::StdRng;
use webre_substrate::rand::SeedableRng;
use webre::concepts::resume;
use webre::text::{BayesTrainer, ConfusionMatrix};
use webre_concepts::matcher::find_matches;
use webre_corpus::CorpusGenerator;
use webre_text::tokenize::{split_tokens, Delimiters};

/// Labels a token with its true concept using the generator's pools (what
/// the paper's user did by hand on training documents).
fn true_label(set: &webre::concepts::ConceptSet, token: &str) -> String {
    let matches = find_matches(set, token);
    match matches.first() {
        Some(m) => m.concept.to_owned(),
        None => "unknown".to_owned(),
    }
}

fn main() {
    let set = resume::concepts();
    let delims = Delimiters::default();
    let generator = CorpusGenerator::new(77);

    // Harvest labeled tokens from 40 training documents.
    let mut trainer = BayesTrainer::new();
    for doc in generator.generate(40) {
        let text = webre::html::parse(&doc.html).text_content();
        for token in split_tokens(&text, &delims) {
            trainer.add(&true_label(&set, &token), &token);
        }
    }
    println!("trained on {} labeled tokens", trainer.example_count());
    let model = trainer.build().expect("non-empty training set");

    // Evaluate on 10 held-out documents (indices past the training range).
    let mut matrix = ConfusionMatrix::new();
    let _rng = StdRng::seed_from_u64(0);
    for i in 1000..1010 {
        let doc = generator.generate_one(i);
        let text = webre::html::parse(&doc.html).text_content();
        for token in split_tokens(&text, &delims) {
            let truth = true_label(&set, &token);
            let predicted = model.classify(&token).unwrap_or("unknown");
            matrix.record(&truth, predicted);
        }
    }

    println!();
    println!("== Bayes classifier on held-out documents ==");
    print!("{matrix}");
    println!();
    println!(
        "(synonym matching is exact on these tokens by construction; the \
         classifier approaches it from labeled examples alone, which is \
         what makes it useful for instances the synonym list misses)"
    );
}
