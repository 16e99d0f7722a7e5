//! Command execution for the `mosaic` binary.

use crate::args::{CliError, Command, ImageArg, SubmitAction};
use mosaic_gateway::{Fleet, Gateway};
use mosaic_image::histogram::Histogram;
use mosaic_image::io::{load_pgm, save_pgm};
use mosaic_image::metrics;
use mosaic_service::protocol::{self, Response};
use mosaic_service::{run_load, Client, Server};
use mosaic_telemetry as telemetry;
use mosaic_tilelib::{execute_library, LibraryJobSpec, TileStore};
use photomosaic::{Deadline, ImageSource, JobResult, JobSpec, Json};

/// Execute a parsed command, returning the text to print on success.
///
/// # Errors
/// I/O, geometry and feasibility problems are reported as [`CliError`].
pub fn execute(command: Command) -> Result<String, CliError> {
    match command {
        Command::Help => Ok(crate::USAGE.to_string()),
        Command::Generate {
            input,
            target,
            out,
            config,
            trace_out,
        } => {
            let input_img = load_pgm(&input)?;
            let target_img = load_pgm(&target)?;
            if trace_out.is_some() {
                // Start this run's trace from a clean buffer; metrics
                // are cumulative by design and are dumped as-is.
                telemetry::tracer().clear();
                telemetry::tracer().set_enabled(true);
            }
            let result = photomosaic::generate(&input_img, &target_img, &config)?;
            let mut trace_note = String::new();
            if let Some(trace_path) = trace_out {
                telemetry::tracer().set_enabled(false);
                let dump = telemetry::dump_json(telemetry::tracer(), telemetry::registry());
                std::fs::write(&trace_path, dump)
                    .map_err(|e| CliError(format!("failed to write {trace_path}: {e}")))?;
                trace_note = format!("\nwrote trace to {trace_path}");
            }
            save_pgm(&out, &result.image)?;
            Ok(format!(
                "{}\nPSNR = {:.2} dB, SSIM = {:.4}\nwrote {out}{trace_note}",
                result.report.summary(),
                metrics::psnr(&result.image, &target_img),
                metrics::ssim(&result.image, &target_img),
            ))
        }
        Command::Ingest { store, from, tile } => {
            let store = TileStore::create(&store, tile)?;
            let report = store.ingest_dir(&from)?;
            Ok(format!(
                "ingested {} new tiles ({} duplicates by hash, {} skipped, {} scanned)\n\
                 store {} now holds {} tiles of {tile}x{tile}",
                report.ingested,
                report.duplicates,
                report.skipped,
                report.scanned,
                store.root().display(),
                store.len()?,
            ))
        }
        Command::Library {
            target,
            store,
            out,
            params,
        } => {
            let spec = LibraryJobSpec {
                target: image_source(ImageArg::Path(target), 0)?,
                store,
                params,
            };
            let result = execute_library(&spec, mosaic_pool::global(), &Deadline::NONE)?;
            save_pgm(&out, &result.image)?;
            let count = |key: &str| result.report.get(key).and_then(Json::as_u64).unwrap_or(0);
            Ok(format!(
                "library mosaic: {} cells from {} tiles ({} clusters, {} candidates), \
                 total error {}\nwrote {out}",
                count("cells"),
                count("tiles"),
                count("clusters"),
                count("candidates_total"),
                count("total_error"),
            ))
        }
        Command::Synth {
            scene,
            size,
            seed,
            out,
        } => {
            let img = scene.render(size, seed);
            save_pgm(&out, &img)?;
            Ok(format!(
                "wrote {size}x{size} {} scene to {out}",
                scene.name()
            ))
        }
        Command::Compare { a, b } => {
            let ia = load_pgm(&a)?;
            let ib = load_pgm(&b)?;
            if ia.dimensions() != ib.dimensions() {
                return Err(CliError(format!(
                    "dimension mismatch: {}x{} vs {}x{}",
                    ia.width(),
                    ia.height(),
                    ib.width(),
                    ib.height()
                )));
            }
            Ok(format!(
                "SAD  = {}\nMAE  = {:.3}\nMSE  = {:.3}\nPSNR = {:.2} dB\nSSIM = {:.4}",
                metrics::sad(&ia, &ib),
                metrics::mae(&ia, &ib),
                metrics::mse(&ia, &ib),
                metrics::psnr(&ia, &ib),
                metrics::ssim(&ia, &ib),
            ))
        }
        Command::Serve(config) => {
            let (workers, queue, cache) =
                (config.workers, config.queue_capacity, config.cache_capacity);
            let server = Server::start(config)
                .map_err(|e| CliError(format!("failed to start server: {e}")))?;
            // Print the address immediately — with port 0 the caller
            // cannot know it, and `join` blocks until shutdown.
            println!(
                "mosaic service listening on {} ({workers} workers, queue {queue}, cache {cache})",
                server.local_addr()
            );
            server.join();
            Ok("server stopped".to_string())
        }
        Command::Gateway(config) => {
            let count = config.backends.len();
            let gateway = Gateway::start(config)
                .map_err(|e| CliError(format!("failed to start gateway: {e}")))?;
            println!(
                "mosaic gateway listening on {} ({count} backends, rendezvous routing)",
                gateway.local_addr()
            );
            gateway.join();
            Ok("gateway stopped".to_string())
        }
        Command::Fleet { backends, gateway } => {
            let fleet = Fleet::start(backends, gateway)
                .map_err(|e| CliError(format!("failed to start fleet: {e}")))?;
            let addrs: Vec<String> = (0..fleet.backend_count())
                .map(|i| fleet.backend_addr(i).to_string())
                .collect();
            println!(
                "mosaic fleet: gateway {} (rendezvous routing) over backends {}",
                fleet.gateway_addr(),
                addrs.join(", ")
            );
            fleet.serve();
            Ok("fleet stopped".to_string())
        }
        Command::Submit { addr, action } => submit(&addr, action),
        Command::Info { path } => {
            let img = load_pgm(&path)?;
            let hist = Histogram::of_luma(&img);
            Ok(format!(
                "{path}: {}x{} grayscale\nintensity: min {} max {} mean {:.2}",
                img.width(),
                img.height(),
                hist.min_value().unwrap_or(0),
                hist.max_value().unwrap_or(0),
                hist.mean(),
            ))
        }
    }
}

/// Turn a CLI image argument into a wire [`ImageSource`]. Paths are
/// loaded here so the server never touches the client's filesystem.
fn image_source(arg: ImageArg, size: usize) -> Result<ImageSource, CliError> {
    match arg {
        ImageArg::Path(path) => {
            let img = load_pgm(&path)?;
            if img.width() != img.height() {
                return Err(CliError(format!(
                    "{path}: the pipeline needs a square image, got {}x{}",
                    img.width(),
                    img.height()
                )));
            }
            Ok(ImageSource::Pixels {
                size: img.width(),
                pixels: img.pixels().iter().map(|p| p.0).collect(),
            })
        }
        ImageArg::Scene { scene, seed } => Ok(ImageSource::Synth { scene, size, seed }),
    }
}

fn io_err(e: std::io::Error) -> CliError {
    CliError(format!("service error: {e}"))
}

/// The error for any reply but the one asked for, in plain words.
fn refusal(response: Response) -> CliError {
    CliError(match response {
        Response::Rejected { retry_after_ms } => {
            format!("rejected (server retry-after {retry_after_ms} ms)")
        }
        Response::Error { message } => format!("server error: {message}"),
        Response::StoreError { message } => format!("store error: {message}"),
        Response::LibraryInfeasible { cells, tiles } => {
            format!("library infeasible: {cells} cells but only {tiles} tiles in the store")
        }
        Response::DeadlineExceeded { deadline_ms: ms } => format!("deadline exceeded ({ms} ms)"),
        Response::FrameTooLarge { max_frame_bytes: n } => format!("frame over the {n}-byte limit"),
        Response::BackendDown {
            backend,
            retry_after_ms,
        } => format!("backend {backend} is down (gateway retry-after {retry_after_ms} ms)"),
        Response::NoBackendAvailable { retry_after_ms } => {
            format!("no backend available (gateway retry-after {retry_after_ms} ms)")
        }
        other => format!("unexpected response: {other:?}"),
    })
}

fn submit(addr: &str, action: SubmitAction) -> Result<String, CliError> {
    match action {
        SubmitAction::Library {
            target,
            size,
            store,
            params,
        } => {
            let spec = LibraryJobSpec {
                target: image_source(target, size)?,
                store,
                params,
            };
            let mut client = Client::connect(addr).map_err(io_err)?;
            match client.submit_library(&spec).map_err(io_err)? {
                Response::Result { result } => {
                    let result = JobResult::from_json(&result).map_err(CliError)?;
                    let count =
                        |key: &str| result.report.get(key).and_then(Json::as_u64).unwrap_or(0);
                    Ok(format!(
                        "library result: {}x{} image, {} cells from {} tiles, total error {}",
                        result.image.width(),
                        result.image.height(),
                        count("cells"),
                        count("tiles"),
                        count("total_error"),
                    ))
                }
                other => Err(refusal(other)),
            }
        }
        SubmitAction::Control(request) => {
            let mut client = Client::connect(addr).map_err(io_err)?;
            match client.request(&request).map_err(io_err)? {
                Response::Pong => Ok(protocol::kinds::PONG.to_string()),
                Response::Stats { stats } => Ok(stats.encode()),
                Response::Metrics { text } => Ok(text),
                Response::Gateway { gateway } => Ok(gateway.encode()),
                Response::ShuttingDown => Ok("server is shutting down".to_string()),
                other => Err(refusal(other)),
            }
        }
        SubmitAction::Job {
            input,
            target,
            size,
            config,
            jobs,
            connections,
        } => {
            let spec = JobSpec {
                input: image_source(input, size)?,
                target: image_source(target, size)?,
                config,
            };
            if jobs == 1 {
                let mut client = Client::connect(addr).map_err(io_err)?;
                let (response, rejections) = client.submit_with_retry(&spec, 40).map_err(io_err)?;
                match response {
                    Response::Result { result } => {
                        let result = JobResult::from_json(&result).map_err(CliError)?;
                        let total_error = result
                            .report
                            .get("total_error")
                            .and_then(Json::as_u64)
                            .unwrap_or(0);
                        let cache_hit = result
                            .report
                            .get("cache_hit")
                            .and_then(Json::as_bool)
                            .unwrap_or(false);
                        let queue_wait_ms = result
                            .report
                            .get("queue_wait_ms")
                            .and_then(Json::as_f64)
                            .unwrap_or(0.0);
                        Ok(format!(
                            "result: {}x{} image, total error {total_error}, cache {}, \
                             queue wait {queue_wait_ms:.1} ms, {rejections} rejections absorbed",
                            result.image.width(),
                            result.image.height(),
                            if cache_hit { "hit" } else { "miss" },
                        ))
                    }
                    Response::Rejected { retry_after_ms } => Err(CliError(format!(
                        "rejected after retries (server retry-after {retry_after_ms} ms)"
                    ))),
                    other => Err(refusal(other)),
                }
            } else {
                let specs = vec![spec; jobs];
                let summary = run_load(addr, &specs, connections).map_err(io_err)?;
                Ok(format!(
                    "load: {} completed, {} failed, {} rejections absorbed, \
                     {} cache hits, {} ms wall",
                    summary.completed,
                    summary.failed,
                    summary.rejections,
                    summary.cache_hits,
                    summary.wall_ms
                ))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosaic_gateway::GatewayConfig;
    use mosaic_image::synth::Scene;
    use mosaic_service::protocol::Request;
    use mosaic_service::ServiceConfig;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("mosaic_cli_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn write_scene(name: &str, scene: Scene, size: usize, seed: u64) -> String {
        let path = tmp(name);
        save_pgm(&path, &scene.render(size, seed)).unwrap();
        path.to_string_lossy().into_owned()
    }

    #[test]
    fn synth_then_info_roundtrip() {
        let out = tmp("synth.pgm").to_string_lossy().into_owned();
        let msg = execute(Command::Synth {
            scene: Scene::Portrait,
            size: 32,
            seed: 3,
            out: out.clone(),
        })
        .unwrap();
        assert!(msg.contains("32x32"));
        let info = execute(Command::Info { path: out }).unwrap();
        assert!(info.contains("32x32 grayscale"));
    }

    #[test]
    fn generate_end_to_end() {
        let input = write_scene("gen_in.pgm", Scene::Portrait, 64, 1);
        let target = write_scene("gen_tg.pgm", Scene::Regatta, 64, 2);
        let out = tmp("gen_out.pgm").to_string_lossy().into_owned();
        let config = photomosaic::MosaicBuilder::new()
            .grid(8)
            .backend(photomosaic::Backend::Serial)
            .build();
        let msg = execute(Command::Generate {
            input,
            target: target.clone(),
            out: out.clone(),
            config,
            trace_out: None,
        })
        .unwrap();
        assert!(msg.contains("error="));
        // The output must parse and compare sensibly against the target.
        let compare = execute(Command::Compare { a: out, b: target }).unwrap();
        assert!(compare.contains("PSNR"));
    }

    #[test]
    fn ingest_then_library_end_to_end() {
        let photos = tmp("lib_photos");
        std::fs::create_dir_all(&photos).unwrap();
        let mut written = 0;
        let mut seed = 0u64;
        while written < 12 {
            let scene = Scene::ALL[(seed % Scene::ALL.len() as u64) as usize];
            let path = photos.join(format!("p{seed}.pgm"));
            save_pgm(&path, &scene.render(8, seed)).unwrap();
            written += 1;
            seed += 1;
        }
        let store = tmp("lib_store").to_string_lossy().into_owned();
        let _ = std::fs::remove_dir_all(&store);
        let msg = execute(Command::Ingest {
            store: store.clone(),
            from: photos.to_string_lossy().into_owned(),
            tile: 8,
        })
        .unwrap();
        assert!(msg.contains("new tiles"), "{msg}");

        // Re-ingest is a no-op by hash: nothing new, all duplicates.
        let msg = execute(Command::Ingest {
            store: store.clone(),
            from: photos.to_string_lossy().into_owned(),
            tile: 8,
        })
        .unwrap();
        assert!(msg.contains("ingested 0 new tiles"), "{msg}");

        let target = write_scene("lib_target.pgm", Scene::Portrait, 32, 3);
        let out = tmp("lib_out.pgm").to_string_lossy().into_owned();
        let msg = execute(Command::Library {
            target,
            store: store.clone(),
            out: out.clone(),
            params: mosaic_tilelib::LibraryParams {
                grid: 3,
                clusters: 4,
                ..Default::default()
            },
        })
        .unwrap();
        assert!(msg.contains("9 cells"), "{msg}");
        let info = execute(Command::Info { path: out }).unwrap();
        assert!(info.contains("24x24 grayscale"), "{info}");

        // Too many cells for the library is a clear typed failure.
        let target = write_scene("lib_target2.pgm", Scene::Portrait, 32, 3);
        let err = execute(Command::Library {
            target,
            store,
            out: tmp("lib_out2.pgm").to_string_lossy().into_owned(),
            params: mosaic_tilelib::LibraryParams {
                grid: 16,
                ..Default::default()
            },
        })
        .unwrap_err();
        assert!(err.to_string().contains("cannot cover 256 cells"), "{err}");
    }

    #[test]
    fn compare_rejects_mismatched_sizes() {
        let a = write_scene("cmp_a.pgm", Scene::Fur, 32, 1);
        let b = write_scene("cmp_b.pgm", Scene::Fur, 64, 1);
        let err = execute(Command::Compare { a, b }).unwrap_err();
        assert!(err.to_string().contains("dimension mismatch"));
    }

    #[test]
    fn missing_file_is_reported() {
        let err = execute(Command::Info {
            path: "/nonexistent/x.pgm".into(),
        })
        .unwrap_err();
        assert!(err.to_string().contains("image error"));
    }

    #[test]
    fn serve_and_submit_end_to_end() {
        // Learn a free port, then serve on it from a background thread.
        let port = {
            let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            listener.local_addr().unwrap().port()
        };
        let addr = format!("127.0.0.1:{port}");
        let serve_addr = addr.clone();
        let server = std::thread::spawn(move || {
            execute(Command::Serve(ServiceConfig {
                addr: serve_addr,
                workers: 2,
                queue_capacity: 8,
                cache_capacity: 4,
                retry_after_ms: 10,
                ..ServiceConfig::default()
            }))
        });
        let mut attempts = 0;
        loop {
            match std::net::TcpStream::connect(&addr) {
                Ok(_) => break,
                Err(_) if attempts < 200 => {
                    attempts += 1;
                    std::thread::sleep(std::time::Duration::from_millis(10));
                }
                Err(e) => panic!("server never came up: {e}"),
            }
        }

        let msg = execute(Command::Submit {
            addr: addr.clone(),
            action: SubmitAction::Control(Request::Ping),
        })
        .unwrap();
        assert_eq!(msg, "pong");

        // One job whose input comes from a PGM on disk.
        let input = write_scene("srv_in.pgm", Scene::Portrait, 32, 1);
        let job = SubmitAction::Job {
            input: ImageArg::Path(input.clone()),
            target: ImageArg::Scene {
                scene: Scene::Checker,
                seed: 2,
            },
            size: 32,
            config: photomosaic::MosaicBuilder::new()
                .grid(4)
                .backend(photomosaic::Backend::Serial)
                .build(),
            jobs: 1,
            connections: 1,
        };
        let msg = execute(Command::Submit {
            addr: addr.clone(),
            action: job.clone(),
        })
        .unwrap();
        assert!(msg.contains("total error"), "{msg}");

        // Load generation over several connections; repeats hit the cache.
        let SubmitAction::Job {
            input,
            target,
            size,
            config,
            ..
        } = job
        else {
            unreachable!()
        };
        let msg = execute(Command::Submit {
            addr: addr.clone(),
            action: SubmitAction::Job {
                input,
                target,
                size,
                config,
                jobs: 4,
                connections: 2,
            },
        })
        .unwrap();
        assert!(msg.contains("4 completed"), "{msg}");

        let msg = execute(Command::Submit {
            addr: addr.clone(),
            action: SubmitAction::Control(Request::Stats),
        })
        .unwrap();
        assert!(msg.contains("\"completed\""), "{msg}");

        let msg = execute(Command::Submit {
            addr: addr.clone(),
            action: SubmitAction::Control(Request::Metrics),
        })
        .unwrap();
        assert!(
            msg.contains("# TYPE service_jobs_completed_total counter"),
            "{msg}"
        );
        assert!(msg.contains("service_queue_wait_us_count"), "{msg}");

        let msg = execute(Command::Submit {
            addr: addr.clone(),
            action: SubmitAction::Control(Request::Shutdown),
        })
        .unwrap();
        assert!(msg.contains("shutting down"), "{msg}");
        let served = server.join().unwrap().unwrap();
        assert!(served.contains("stopped"), "{served}");
    }

    #[test]
    fn submit_library_end_to_end() {
        // Seed a store the server-side executor will read by path.
        let store_root = tmp("submit_lib_store");
        let _ = std::fs::remove_dir_all(&store_root);
        let store = TileStore::create(&store_root, 8).unwrap();
        let mut written = 0;
        let mut seed = 0u64;
        while written < 12 {
            let scene = Scene::ALL[(seed % Scene::ALL.len() as u64) as usize];
            let (_, fresh) = store.insert(&scene.render(8, seed)).unwrap();
            if fresh {
                written += 1;
            }
            seed += 1;
        }

        let server = Server::start(ServiceConfig::default()).unwrap();
        let addr = server.local_addr().to_string();
        let library = |store: String| SubmitAction::Library {
            target: ImageArg::Scene {
                scene: Scene::Portrait,
                seed: 3,
            },
            size: 32,
            store,
            params: mosaic_tilelib::LibraryParams {
                grid: 3,
                clusters: 4,
                ..Default::default()
            },
        };
        let msg = execute(Command::Submit {
            addr: addr.clone(),
            action: library(store_root.to_string_lossy().into_owned()),
        })
        .unwrap();
        assert!(msg.contains("9 cells from 12 tiles"), "{msg}");

        // A missing store surfaces the typed store error.
        let err = execute(Command::Submit {
            addr: addr.clone(),
            action: library("/nonexistent/mosaic/store".into()),
        })
        .unwrap_err();
        assert!(err.to_string().contains("store error"), "{err}");

        server.shutdown();
        server.join();
    }

    #[test]
    fn fleet_and_submit_end_to_end() {
        let port = {
            let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            listener.local_addr().unwrap().port()
        };
        let addr = format!("127.0.0.1:{port}");
        let fleet_addr = addr.clone();
        let fleet = std::thread::spawn(move || {
            let backend = ServiceConfig {
                workers: 1,
                queue_capacity: 8,
                cache_capacity: 4,
                ..ServiceConfig::default()
            };
            execute(Command::Fleet {
                backends: vec![backend; 2],
                gateway: GatewayConfig {
                    addr: fleet_addr,
                    ..GatewayConfig::default()
                },
            })
        });
        let mut attempts = 0;
        loop {
            match std::net::TcpStream::connect(&addr) {
                Ok(_) => break,
                Err(_) if attempts < 200 => {
                    attempts += 1;
                    std::thread::sleep(std::time::Duration::from_millis(10));
                }
                Err(e) => panic!("fleet never came up: {e}"),
            }
        }

        // Route one job through the gateway, then read the routing table.
        let msg = execute(Command::Submit {
            addr: addr.clone(),
            action: SubmitAction::Job {
                input: ImageArg::Scene {
                    scene: Scene::Portrait,
                    seed: 1,
                },
                target: ImageArg::Scene {
                    scene: Scene::Checker,
                    seed: 2,
                },
                size: 32,
                config: photomosaic::MosaicBuilder::new()
                    .grid(4)
                    .backend(photomosaic::Backend::Serial)
                    .build(),
                jobs: 1,
                connections: 1,
            },
        })
        .unwrap();
        assert!(msg.contains("total error"), "{msg}");

        let msg = execute(Command::Submit {
            addr: addr.clone(),
            action: SubmitAction::Control(Request::GatewayInfo),
        })
        .unwrap();
        assert!(msg.contains("\"healthy\""), "{msg}");

        let msg = execute(Command::Submit {
            addr: addr.clone(),
            action: SubmitAction::Control(Request::Shutdown),
        })
        .unwrap();
        assert!(msg.contains("shutting down"), "{msg}");
        let served = fleet.join().unwrap().unwrap();
        assert!(served.contains("stopped"), "{served}");
    }

    #[test]
    fn gateway_info_against_a_plain_server_is_a_clear_error() {
        let server = Server::start(ServiceConfig::default()).unwrap();
        let err = execute(Command::Submit {
            addr: server.local_addr().to_string(),
            action: SubmitAction::Control(Request::GatewayInfo),
        })
        .unwrap_err();
        assert!(err.to_string().contains("backend"), "{err}");
        server.shutdown();
        server.join();
    }

    #[test]
    fn submit_rejects_non_square_images() {
        let path = tmp("nonsquare.pgm");
        let img = mosaic_image::GrayImage::from_vec(4, 2, vec![mosaic_image::Gray(0); 8]).unwrap();
        save_pgm(&path, &img).unwrap();
        let err = execute(Command::Submit {
            addr: "127.0.0.1:1".into(),
            action: SubmitAction::Job {
                input: ImageArg::Path(path.to_string_lossy().into_owned()),
                target: ImageArg::Scene {
                    scene: Scene::Fur,
                    seed: 1,
                },
                size: 16,
                config: photomosaic::MosaicConfig::default(),
                jobs: 1,
                connections: 1,
            },
        })
        .unwrap_err();
        assert!(err.to_string().contains("square"), "{err}");
    }

    /// A typed refusal reaches the user by name: a job stalled past the
    /// server's deadline reads as the deadline with its length.
    #[test]
    fn submit_names_a_deadline_refusal() {
        let server = Server::start(ServiceConfig {
            workers: 1,
            job_deadline_ms: 100,
            faults: mosaic_service::FaultPlan::stall_first_jobs(1, 300),
            ..ServiceConfig::default()
        })
        .unwrap();
        let err = execute(Command::Submit {
            addr: server.local_addr().to_string(),
            action: SubmitAction::Job {
                input: ImageArg::Scene {
                    scene: Scene::Portrait,
                    seed: 1,
                },
                target: ImageArg::Scene {
                    scene: Scene::Fur,
                    seed: 2,
                },
                size: 16,
                config: photomosaic::MosaicBuilder::new().grid(4).build(),
                jobs: 1,
                connections: 1,
            },
        })
        .unwrap_err();
        let text = err.to_string();
        assert!(
            text.contains("deadline") && text.contains("100 ms"),
            "{text}"
        );
        server.shutdown();
        server.join();
    }

    #[test]
    fn help_prints_usage() {
        let msg = execute(Command::Help).unwrap();
        assert!(msg.contains("USAGE"));
        assert!(msg.contains("generate"));
    }
}
