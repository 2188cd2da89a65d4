// repro-fuzz reproducer
// oracle: spt
// seed: 24
// iteration: 89
// detail: [pipeline] n=279: transformed module result 17 != sequential result 41

global int A[64] aliased;
global int B[64];

int helper0(int x) {
    return (0) & 65535;
}

int main(int n) {
    int s2 = 17;
    int s3 = 24;
    int w0 = 0;
    int w1 = 0;
    w0 = 4;
    while (w0 > 0) {
        w0 = w0 - 1;
        w1 = 7;
        while (w1 > 0) {
            w1 = w1 - 1;
            s3 = (s3) & 65535;
            if (108) { break; }
        }
        s3 = (s3) & 65535;
        B[(0) & 63] = (((helper0(113)) / (((A[(s2) & 63]) & 7) + 1))) & 65535;
    }
    return (s2 + s3) & 1048575;
}
