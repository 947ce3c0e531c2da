//! Movie recommendation on a Netflix-style user×movie×time tensor
//! (the paper's §IV-E scenario).
//!
//! Shows the headline application result: tensor completion with
//! auxiliary information (a movie-movie similarity matrix) beats plain
//! ALS on held-out ratings — and then serves recommendations from the
//! completed model through `distenc::serve::Engine`, whose pruned top-K
//! scan replaces scoring every movie by hand.
//!
//! ```sh
//! cargo run --release --example movie_recommender
//! ```

use distenc::datagen::apps::netflix_like;
use distenc::eval::methods::{Knobs, Method};
use distenc::eval::metrics;
use distenc::serve::{Engine, EngineConfig, TopKQuery};
use distenc::tensor::split::split_missing;

fn main() {
    // A scaled Netflix analog: 300 users × 150 movies × 12 time bins,
    // 25_000 ratings in [1, 5], with a movie-movie similarity derived
    // from movie features (the paper builds it from titles).
    let data = netflix_like(300, 150, 12, 25_000, 3);
    let split = split_missing(&data.tensor, 0.5, 9);
    let sims = data.similarity_refs();
    let knobs = Knobs { rank: 6, alpha: 10.0, lambda: 0.05, max_iters: 30, eigen_k: 60, ..Default::default() };

    let dis = Method::DisTenC
        .run(&split.train, &sims, &knobs)
        .expect("DisTenC run");
    let als = Method::Als.run(&split.train, &sims, &knobs).expect("ALS run");

    let rmse_dis = metrics::rmse(&dis.model, &split.test).unwrap();
    let rmse_als = metrics::rmse(&als.model, &split.test).unwrap();
    println!("held-out rating RMSE:");
    println!("  DisTenC (movie similarity): {rmse_dis:.4}");
    println!("  ALS     (no side info)    : {rmse_als:.4}");
    println!(
        "  improvement: {:.1}%  (paper reports an average of 14.9% on Netflix)",
        metrics::improvement_pct(rmse_als, rmse_dis)
    );

    // Serve recommendations from the completed model: load it into the
    // engine and rank the movie mode with a pruned top-K scan.
    let engine = Engine::new(&dis.model, EngineConfig::default()).expect("serving engine");
    let user = 0usize;
    let t_latest = 11usize;
    let rated: std::collections::BTreeSet<usize> = split
        .train
        .iter()
        .filter(|(idx, _)| idx[0] == user)
        .map(|(idx, _)| idx[1])
        .collect();
    // Ask for enough extra results to cover the user's already-rated
    // movies, then drop those before presenting.
    let query = TopKQuery { mode: 1, at: vec![user, 0, t_latest], k: 5 + rated.len() };
    let ranked = engine.topk(&query, None).expect("top-K query");
    println!("\ntop-5 recommendations for user {user} (movie id, predicted rating):");
    for item in ranked.items.iter().filter(|i| !rated.contains(&i.index)).take(5) {
        println!("  movie {:>3}: {:.2}", item.index, item.score);
        // Serving scores are bit-identical to evaluating the model.
        assert_eq!(item.score, dis.model.eval(&[user, item.index, t_latest]));
    }
    let stats = engine.snapshot();
    println!(
        "(scanned {} of 150 movies, pruned {} via the norm bound)",
        stats.candidates_scanned, stats.candidates_pruned
    );
    assert!(rmse_dis < rmse_als, "side information must help");
}
