#pragma once

/// \file VoiceGuard.h
/// Umbrella header for the VoiceGuard core: include this to get the full
/// public API of the guard box and its decision framework.
///
///   - guard::GuardBox            the inline traffic-processing middlebox
///   - guard::DecisionModule      abstract legitimacy oracle
///   - guard::RssiDecisionModule  the Bluetooth-RSSI method (Fig. 5)
///   - guard::CompositeDecisionModule / PresenceOracleModule (§VII)
///   - guard::FloorTracker        multi-floor level tracking (§V-B2)
///   - guard::learn_threshold     the walk-around threshold app (§IV-C)
///   - guard::SignatureLearner    adaptive signature re-learning (§VII)
///   - guard::SpikeClassifier     the §IV-B phase rules
///
/// For a fully assembled simulated deployment, see workload::SmartHomeWorld.

#include "voiceguard/Decision.h"
#include "voiceguard/FloorTracker.h"
#include "voiceguard/GuardBox.h"
#include "voiceguard/RecognitionCore.h"
#include "voiceguard/Recognizer.h"
#include "voiceguard/SignatureLearner.h"
#include "voiceguard/ThresholdApp.h"
